"""Policy tables, threshold compression, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semsched.core import ConfigError, MetricKind, SystemParams, params_stamp
from semsched.mdp import SolveResult, format_solve_result
from semsched.policies import (
    NotThresholdStructured,
    PolicyTable,
    extract_thresholds,
    format_policy,
    format_thresholds,
    greedy_policy,
    parse_policy,
    state_count,
)

PARAMS = SystemParams(B=2, delta_max=4, allow_tight_truncation=True)
# the (metric, battery, query) grid of a PARAMS table
SHAPE = (PARAMS.delta_max + 1, PARAMS.B + 1, 2)


def split_lines(text):
    """A written table file split by hand: its `key = value` header, and
    its other non-comment lines as lists of fields."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
        else:
            rows.append(line.split())
    return header, rows


def split_solve_file(text):
    """A solve file's header, and its bias column as floats."""
    header, rows = split_lines(text)
    assert rows[0] == ["metric", "battery", "query", "action", "bias"]
    return header, np.array([float(r[4]) for r in rows[1:]])


def expands_to(thresholds, policy):
    """Whether the switch points give exactly the policy's actions:
    Transmit at metric >= threshold in each (battery, query) slice."""
    metric = np.arange(policy.delta_max + 1)
    return len(thresholds) == (policy.B + 1) * 2 and all(
        np.array_equal(policy.actions[:, b, q], metric >= t)
        for (b, q), t in thresholds.items()
    )


def make_table(actions):
    return PolicyTable(
        kind=MetricKind.VAOI,
        params_stamp=params_stamp(PARAMS),
        delta_max=PARAMS.delta_max,
        B=PARAMS.B,
        actions=np.asarray(actions, dtype=np.int8),
    )


class TestIndexing:
    """Canonical order, as the written table lists the states."""

    def rows(self):
        _, rows = split_lines(format_policy(greedy_policy(PARAMS)))
        return [tuple(map(int, r[:3])) for r in rows[1:]]

    def test_canonical_order(self):
        # metric-major, then battery, then query
        rows = self.rows()
        assert rows[0] == (0, 0, 0)
        assert rows[1] == (0, 0, 1)
        assert rows[2] == (0, 1, 0)
        assert rows[6] == (1, 0, 0)
        assert state_count(4, 2) == 30 == len(rows)

    @given(
        m=st.integers(0, 4), b=st.integers(0, 2), q=st.integers(0, 1)
    )
    def test_index_bijective(self, m, b, q):
        i = (m * 3 + b) * 2 + q
        assert 0 <= i < state_count(4, 2)
        assert self.rows()[i] == (m, b, q)


class TestPolicyTable:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            make_table(np.zeros(7, dtype=np.int8))
        # the flat canonical order of the right size is not the grid
        with pytest.raises(ValueError, match=r"expected \(5, 3, 2\)"):
            make_table(np.zeros(state_count(4, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="shape"):
            make_table(np.zeros((3, 5, 2), dtype=np.int8))

    def test_rejects_transmit_on_empty_battery(self):
        actions = np.zeros(SHAPE, dtype=np.int8)
        actions[2, 0, 1] = 1
        with pytest.raises(ValueError, match="empty battery"):
            make_table(actions)

    def test_actions_frozen(self):
        t = make_table(np.zeros(SHAPE, dtype=np.int8))
        with pytest.raises(ValueError):
            t.actions[3, 1, 0] = 1


class TestGreedy:
    def test_transmits_iff_battery(self):
        g = greedy_policy(PARAMS).actions
        assert g.shape == SHAPE
        for m in range(5):
            for q in (0, 1):
                assert g[m, 0, q] == 0
                assert g[m, 1, q] == 1
                assert g[m, 2, q] == 1

    def test_stamped(self):
        assert greedy_policy(PARAMS).params_stamp == params_stamp(PARAMS)


class TestThresholds:
    def test_greedy_compresses(self):
        thresholds = extract_thresholds(greedy_policy(PARAMS))
        # battery 0: never; battery >= 1: always (threshold 0)
        assert thresholds[(0, 0)] == PARAMS.delta_max + 1
        assert thresholds[(1, 1)] == 0
        assert thresholds[(2, 0)] == 0

    def test_round_trip_table(self):
        g = greedy_policy(PARAMS)
        assert expands_to(extract_thresholds(g), g)

    def test_violating_slice_reported(self):
        actions = np.zeros(SHAPE, dtype=np.int8)
        # transmit at metric 1 but idle at metric 2: not a threshold
        actions[1, 2, 1] = 1
        actions[3, 2, 1] = 1
        with pytest.raises(NotThresholdStructured, match=r"\(battery, query\): \(2, 1\)$"):
            extract_thresholds(make_table(actions))

    def test_every_violating_slice_is_reported_in_order(self):
        actions = np.zeros(SHAPE, dtype=np.int8)
        actions[0, 2, 1] = actions[2, 1, 0] = actions[4, 2, 1] = 1
        with pytest.raises(NotThresholdStructured) as err:
            extract_thresholds(make_table(actions))
        assert str(err.value) == "non-threshold slices (battery, query): (1, 0), (2, 1)"

    def test_inclusive_switch_point(self):
        actions = np.zeros(SHAPE, dtype=np.int8)
        for m in (2, 3, 4):
            actions[m, 1, 0] = 1
        table = make_table(actions)
        thresholds = extract_thresholds(table)
        assert thresholds[(1, 0)] == 2
        assert expands_to(thresholds, table)
        assert actions[2, 1, 0] == 1
        assert actions[1, 1, 0] == 0

    @given(st.integers(0, 2**30 - 1))
    def test_threshold_tables_agree_with_origin(self, bits):
        actions = np.array([(bits >> i) & 1 for i in range(30)], dtype=np.int8)
        actions = actions.reshape(SHAPE)
        actions[:, 0] = 0
        table = make_table(actions)
        try:
            thresholds = extract_thresholds(table)
        except NotThresholdStructured:
            return
        assert expands_to(thresholds, table)


class TestSerialization:
    def test_policy_round_trip(self):
        g = greedy_policy(PARAMS)
        back = parse_policy(format_policy(g))
        assert back.kind == g.kind
        assert back.params_stamp == g.params_stamp
        assert np.array_equal(back.actions, g.actions)

    def test_threshold_file(self):
        g = greedy_policy(PARAMS)
        thresholds = extract_thresholds(g)
        assert same_thresholds(format_thresholds(g, thresholds), g, thresholds)


@st.composite
def tables(draw):
    """A random valid policy of a random geometry, with a solver's bias
    and gain, and switch points for the threshold form."""
    dm = draw(st.integers(1, 5))
    B = draw(st.integers(1, 3))
    n = (dm + 1) * (B + 1) * 2
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    actions = np.array(bits, dtype=np.int8).reshape(dm + 1, B + 1, 2)
    actions[:, 0] = 0
    kind = draw(st.sampled_from(list(MetricKind)))
    stamp = draw(st.text("0123456789abcdef", min_size=12, max_size=12))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    bias = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
    thresholds = {
        (b, q): dm + 1 if b == 0 else draw(st.integers(0, dm + 1))
        for b in range(B + 1) for q in (0, 1)
    }
    return PolicyTable(kind, stamp, dm, B, actions), bias, draw(floats), thresholds


def solve_result(policy, bias, gain):
    return SolveResult(
        gain=gain, bias=bias, policy=policy, iterations=17,
        residual_span=3.5e-10, converged=True,
    )


def same_policy(a, b):
    return (a.kind, a.params_stamp, a.delta_max, a.B) == (
        b.kind, b.params_stamp, b.delta_max, b.B
    ) and np.array_equal(a.actions, b.actions)


def same_solve_file(text, result):
    """Whether a solve file, split by hand, holds the result's diagnostics
    and its bias bit for bit."""
    header, bias = split_solve_file(text)
    written = tuple(header[k] for k in ("gain", "iterations", "residual_span", "converged"))
    return written == (
        repr(result.gain), str(result.iterations), repr(result.residual_span),
        str(int(result.converged)),
    ) and bias.tobytes() == result.bias.tobytes()


def same_thresholds(text, policy, thresholds):
    """Whether a threshold file, split by hand, holds the stamp of `policy`
    and one `battery query threshold` row per slice of `thresholds`."""
    header, rows = split_lines(text)
    stamp = {"kind": policy.kind.value, "params_stamp": policy.params_stamp,
             "delta_max": str(policy.delta_max), "B": str(policy.B)}
    slices = {(int(b), int(q)): int(t) for b, q, t in rows}
    return header == stamp and len(rows) == len(slices) and slices == thresholds


def policy_files(policy, bias, gain):
    """The files the package reads a policy from, written for `policy`: a
    policy table, and a solve result, which reads as its policy."""
    return [format_policy(policy), format_solve_result(solve_result(policy, bias, gain))]


JUNK = st.sampled_from(["x", "", "nan", "inf", "=", "1e", "0.5.1", "#"])


class TestCodecRoundTrip:
    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_every_file_kind_round_trips(self, case):
        policy, bias, gain, thresholds = case
        policy_text, solve_text = policy_files(policy, bias, gain)
        for text in (policy_text, solve_text):
            assert same_policy(parse_policy(text), policy)
        assert same_solve_file(solve_text, solve_result(policy, bias, gain))
        assert same_thresholds(format_thresholds(policy, thresholds), policy, thresholds)

    @given(tables())
    @settings(max_examples=30, deadline=None)
    def test_a_solve_result_reads_as_its_policy(self, case):
        policy, bias, gain, _ = case
        policy_text, solve_text = policy_files(policy, bias, gain)
        assert same_policy(parse_policy(solve_text), policy)
        # the policy file's stamp and rows, each row with its bias appended
        policy_header, policy_rows = split_lines(policy_text)
        solve_header, solve_rows = split_lines(solve_text)
        assert policy_header.items() <= solve_header.items()
        assert [r[:4] for r in solve_rows] == policy_rows
        assert all(len(r) == 5 for r in solve_rows)

    @given(tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_single_line_mutation_is_rejected_or_harmless(self, case, data):
        policy, bias, gain, _ = case
        text = data.draw(st.sampled_from(policy_files(policy, bias, gain)))
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(
            st.sampled_from(["delete", "duplicate", "altered copy", "junk field", "insert"])
        )
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op in ("altered copy", "junk field"):
            # a copy with a field changed to another valid-looking value
            # must clash with the original it follows; junk must be
            # refused outright
            fields = lines[i].split(" ")
            j = data.draw(st.integers(0, len(fields) - 1))
            if op == "altered copy":
                fields[j] = data.draw(st.sampled_from("0123456789"))
                lines.insert(i + 1, " ".join(fields))
            else:
                fields[j] = data.draw(JUNK)
                lines[i] = " ".join(fields)
        else:
            lines.insert(i, data.draw(st.text(max_size=20)))
        try:
            back = parse_policy("\n".join(lines) + "\n")
        except ConfigError:
            return
        assert same_policy(back, policy)


class TestFailClosed:
    """Every malformed policy file, or solve-result file read as a policy,
    is a ConfigError, never a traceback or a silently different table."""

    def policy_lines(self):
        return format_policy(greedy_policy(PARAMS)).splitlines()

    def read(self, lines):
        return parse_policy("\n".join(lines) + "\n")

    def test_missing_row(self):
        lines = self.policy_lines()
        with pytest.raises(ConfigError, match="1 row\\(s\\) missing"):
            self.read(lines[:-1])

    def test_duplicate_row(self):
        lines = self.policy_lines()
        lines[-1] = lines[-2]
        with pytest.raises(ConfigError, match="duplicate row"):
            self.read(lines)

    def test_row_outside_the_stamped_geometry(self):
        lines = self.policy_lines() + [f"{PARAMS.delta_max + 1} 1 0 1"]
        with pytest.raises(ConfigError, match="metric 5 outside 0..4"):
            self.read(lines)

    def test_missing_header_key(self):
        lines = [l for l in self.policy_lines() if not l.startswith("params_stamp")]
        with pytest.raises(ConfigError, match="missing header key\\(s\\): params_stamp"):
            self.read(lines)

    def test_duplicate_header_key(self):
        lines = self.policy_lines()
        lines.insert(2, "B = 2")
        with pytest.raises(ConfigError, match="duplicate header key 'B'"):
            self.read(lines)

    def test_action_must_be_zero_or_one(self):
        lines = self.policy_lines()
        lines[-1] = lines[-1][:-1] + "2"
        with pytest.raises(ConfigError, match="action 2 outside"):
            self.read(lines)

    def test_fields_must_be_integers(self):
        lines = self.policy_lines()
        lines[-1] = lines[-1][:-1] + "1.0"
        with pytest.raises(ConfigError, match="bad action value '1.0'"):
            self.read(lines)

    def test_transmit_at_empty_battery(self):
        lines = self.policy_lines()
        k = lines.index("0 0 1 0")
        lines[k] = "0 0 1 1"
        with pytest.raises(ConfigError, match="empty battery"):
            self.read(lines)

    def test_bad_stamp_and_kind(self):
        for key, value in (("params_stamp", "xyz"), ("kind", "age")):
            lines = [
                f"{key} = {value}" if l.startswith(key) else l
                for l in self.policy_lines()
            ]
            with pytest.raises(ConfigError, match=f"bad header value {key}"):
                self.read(lines)

    def test_geometry_above_the_state_ceiling_allocates_nothing(self):
        # 10**12 x 10**12 states would fail in np.zeros, or exhaust memory
        lines = [
            l.split(" = ")[0] + f" = {10**12}" if l.startswith(("delta_max =", "B =")) else l
            for l in self.policy_lines()
        ]
        with pytest.raises(ConfigError, match="above the ceiling of 1048576"):
            self.read(lines)

    def test_rows_must_match_the_column_line(self):
        lines = self.policy_lines()
        with pytest.raises(ConfigError, match="expected 4 fields, got 3"):
            self.read(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]])
        with pytest.raises(ConfigError, match="expected columns 'metric battery query action'"):
            self.read([l if l != "metric battery query action" else "metric query battery action"
                       for l in lines])

    def test_a_solve_result_row_without_its_bias(self):
        p = SystemParams(B=2, delta_max=4, allow_tight_truncation=True)
        result = solve_result(greedy_policy(p), np.zeros(30), 0.5)
        lines = format_solve_result(result).splitlines()
        assert same_policy(self.read(lines), result.policy)
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
        with pytest.raises(ConfigError, match="expected 5 fields, got 4"):
            self.read(lines)
