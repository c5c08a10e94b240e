"""Shared parameter and state types.

Everything downstream (MDP builder, simulator, experiment harness) consumes
the validated `SystemParams` produced here. Parameters travel as flat
``key = value`` config files; `parse_config` + `validate_params` is the only
ingestion path, so invariants hold everywhere by construction.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Mapping


class MetricKind(str, Enum):
    """The four semantic metrics.

    AOI/QAOI share age dynamics, VAOI/QVAOI share version-lag dynamics;
    within each pair only the cost accounting differs.
    """

    AOI = "aoi"
    VAOI = "vaoi"
    QAOI = "qaoi"
    QVAOI = "qvaoi"

    @property
    def query_gated(self) -> bool:
        """True when cost accrues only at query slots."""
        return self in (MetricKind.QAOI, MetricKind.QVAOI)

    @property
    def age_family(self) -> bool:
        """True for AoI-style dynamics (reset to 1), False for version lag."""
        return self in (MetricKind.AOI, MetricKind.QAOI)


class ParamError(ValueError):
    """Parameter validation failure; the message lists every violation."""


class ConfigError(ValueError):
    """Malformed config input at a 1-based line number, None off-file."""

    def __init__(self, line_no: int | None, message: str):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class SystemParams:
    """All model rates and sizes.

    The comparison experiments pin p_s and p_v; B, N and delta_max are
    defaults recorded in every output header. `allow_tight_truncation`
    suppresses the delta_max guard for deliberately small exploratory
    instances.
    """

    p_s: float = 0.8
    p_v: float = 0.25
    p_q: float = 0.2
    p_e: float = 0.05
    B: int = 10
    N: int = 4
    delta_max: int = 100
    allow_tight_truncation: bool = False

    def truncation_guard(self) -> int:
        """Smallest delta_max considered safe for solving at this p_s."""
        return 10 * math.ceil(1.0 / self.p_s)


# Fields that define the physical model; allow_tight_truncation is a
# validation switch and deliberately excluded from the stamp.
_STAMP_FIELDS = ("p_s", "p_v", "p_q", "p_e", "B", "N", "delta_max")


def params_stamp(params: SystemParams) -> str:
    """Short digest binding solver output and simulator input to one model."""
    text = ",".join(f"{k}={getattr(params, k)!r}" for k in _STAMP_FIELDS)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


_PROBABILITY_FIELDS = ("p_s", "p_v", "p_q", "p_e")
_INT_FIELDS = ("B", "N", "delta_max")

# Largest (metric, battery, query) state space validate_params accepts.
# Building the solver's model takes about 700 bytes per state (719 MB
# peak at 1.01 M states), so a config past this ceiling exits 2 where it
# would otherwise exhaust memory.
MAX_STATES = 2**20


def state_count(delta_max: int, B: int) -> int:
    return (delta_max + 1) * (B + 1) * 2


def validate_params(raw: SystemParams | Mapping[str, object]) -> SystemParams:
    """Validate a candidate parameter set, reporting every violation at once.

    Accepts either an existing `SystemParams` (idempotent: a valid one is
    returned unchanged) or a mapping of field names. Raises `ParamError`
    with a message listing all violations: range and type problems (a
    subnormal p_q among them), then B < 1; the state ceiling and the
    truncation guard only when neither was found.
    """
    if isinstance(raw, SystemParams):
        candidate = raw
    else:
        unknown = set(raw) - {f.name for f in fields(SystemParams)}
        if unknown:
            raise ParamError(f"unknown parameter(s): {sorted(unknown)}")
        candidate = SystemParams(**raw)  # type: ignore[arg-type]

    violations: list[str] = []
    for name in _PROBABILITY_FIELDS:
        v = getattr(candidate, name)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            violations.append(f"{name}={v!r} is not a number")
            continue
        if not (0.0 <= v <= 1.0):
            violations.append(f"{name}={v} outside [0, 1]")
    if isinstance(candidate.p_s, (int, float)) and candidate.p_s == 0:
        violations.append("p_s=0: a zero-success channel is degenerate")
    if isinstance(candidate.p_q, float) and 0 < candidate.p_q < sys.float_info.min:
        violations.append(
            f"p_q={candidate.p_q!r} is subnormal (below {sys.float_info.min!r}): "
            f"query-gated costs, which scale with it, lose their precision"
        )

    for name in _INT_FIELDS:
        v = getattr(candidate, name)
        if not isinstance(v, int) or isinstance(v, bool):
            violations.append(f"{name}={v!r} is not an integer")
    if isinstance(candidate.N, int) and candidate.N < 0:
        violations.append(f"N={candidate.N} < 0")
    if isinstance(candidate.delta_max, int) and candidate.delta_max < 1:
        violations.append(f"delta_max={candidate.delta_max} < 1")
    if isinstance(candidate.B, int) and not isinstance(candidate.B, bool):
        if candidate.B < 1:
            violations.append(f"B={candidate.B} < 1")

    if not violations:
        n = state_count(candidate.delta_max, candidate.B)
        if n > MAX_STATES:
            violations.append(
                f"delta_max={candidate.delta_max}, B={candidate.B} give {n} "
                f"states, above the ceiling of {MAX_STATES}"
            )
        if not candidate.allow_tight_truncation:
            if math.isinf(1.0 / candidate.p_s):  # p_s subnormal, < 5.6e-309
                violations.append(
                    f"p_s={candidate.p_s!r} is too small for the guard "
                    f"10*ceil(1/p_s) to be finite; set allow_tight_truncation "
                    f"to override"
                )
            elif candidate.delta_max < (guard := candidate.truncation_guard()):
                violations.append(
                    f"delta_max={candidate.delta_max} below guard {guard} "
                    f"(10*ceil(1/p_s)); set allow_tight_truncation to override"
                )
    if violations:
        raise ParamError("; ".join(violations))

    # int-typed probabilities (p_q = 1 as well as 1.0) become floats, so
    # that equal parameter sets also share one params_stamp
    ints = [k for k in _PROBABILITY_FIELDS if isinstance(getattr(candidate, k), int)]
    if ints:
        candidate = replace(candidate, **{k: float(getattr(candidate, k)) for k in ints})
    return candidate


_BOOL_KEYS = {"allow_tight_truncation"}


def parse_config(text: str) -> dict[str, object]:
    """Parse flat ``key = value`` config text into a raw parameter mapping.

    `#` starts a comment; blank lines are ignored. Values are typed by
    field: probabilities parse as float, sizes as int. Unknown keys and
    malformed lines raise `ConfigError` with the offending line number.
    """
    known_float = set(_PROBABILITY_FIELDS)
    known_int = set(_INT_FIELDS)
    raw: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(line_no, f"expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(line_no, f"duplicate key {key!r}")
        try:
            if key in known_float:
                raw[key] = float(value)
            elif key in known_int:
                raw[key] = int(value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(value)
                raw[key] = value.lower() in ("true", "1")
            else:
                raise ConfigError(line_no, f"unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(line_no, f"bad value {value!r} for {key!r}") from None
    return raw


def load_config(path: str) -> SystemParams:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(None, f"{path} is not UTF-8 text: {exc}") from exc
    return validate_params(parse_config(text))
