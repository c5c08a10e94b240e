"""Parameter validation, config parsing, and stamping."""

import dataclasses
import math
import sys

import pytest
from hypothesis import given, strategies as st

from semsched.core import (
    MAX_STATES,
    ConfigError,
    ParamError,
    SystemParams,
    params_stamp,
    parse_config,
    state_count,
    validate_params,
)


def config_text(p):
    """A config file holding every field of `p`, one `key = value` line
    each."""
    return "".join(f"{f.name} = {getattr(p, f.name)}\n" for f in dataclasses.fields(p))


def small(**over):
    kw = dict(B=2, delta_max=4, allow_tight_truncation=True)
    kw.update(over)
    return SystemParams(**kw)


class TestValidateParams:
    def test_defaults_pass_unchanged(self):
        p = SystemParams()
        assert validate_params(p) is p

    def test_idempotent(self):
        p = validate_params({"p_e": 0.1})
        assert validate_params(p) == p

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("p_v", "p_q", "p_e") for v in (0, 1)] + [("p_s", 1)],
    )
    def test_int_probabilities_become_floats(self, field, value):
        # an int probability equals its float form, so it must also stamp
        # like it: a policy solved under one must simulate under the other
        as_int = validate_params(SystemParams(**{field: value}))
        as_float = validate_params(SystemParams(**{field: float(value)}))
        assert type(getattr(as_int, field)) is float
        assert params_stamp(as_int) == params_stamp(as_float)

    def test_probability_bounds(self):
        with pytest.raises(ParamError, match="p_e=1.5"):
            validate_params({"p_e": 1.5})
        with pytest.raises(ParamError, match="p_q=-0.1"):
            validate_params({"p_q": -0.1})

    def test_zero_success_channel_rejected(self):
        with pytest.raises(ParamError, match="p_s=0"):
            validate_params({"p_s": 0.0})

    def test_nonpositive_battery(self):
        with pytest.raises(ParamError, match="B=0"):
            validate_params({"B": 0})

    def test_truncation_guard(self):
        # p_s=0.8 -> guard 10*ceil(1/0.8) = 20
        with pytest.raises(ParamError, match="guard 20"):
            validate_params({"delta_max": 19})
        p = validate_params({"delta_max": 19, "allow_tight_truncation": True})
        assert p.delta_max == 19
        assert validate_params({"delta_max": 20}).delta_max == 20

    @pytest.mark.parametrize("ps", [1e-310, 5e-324])
    def test_subnormal_success_rate(self, ps):
        # 1/p_s overflows to inf, so the guard has no finite value
        with pytest.raises(ParamError) as err:
            validate_params({"p_s": ps})
        assert str(err.value).startswith(f"p_s={ps!r} is too small")
        # the override skips the guard instead of computing it
        assert validate_params({"p_s": ps, "allow_tight_truncation": True}).p_s == ps

    @pytest.mark.parametrize("pq", [1e-320, 5e-324])
    @pytest.mark.parametrize("tight", [False, True])
    def test_subnormal_query_rate(self, pq, tight):
        # the query-gated costs scale with p_q and would lose their
        # precision; the override does not waive it
        with pytest.raises(ParamError) as err:
            validate_params({"p_q": pq, "allow_tight_truncation": tight})
        assert str(err.value).startswith(f"p_q={pq!r} is subnormal")
        # the smallest normal rate, and 0, stay valid
        for ok in (sys.float_info.min, 0.0):
            assert validate_params({"p_q": ok, "allow_tight_truncation": tight}).p_q == ok

    def test_state_count_ceiling(self):
        # B = 1: (delta_max + 1) * 2 * 2 states, so 262,143 lands on 2^20
        assert state_count(262_143, 1) == MAX_STATES == 2**20
        assert validate_params({"B": 1, "delta_max": 262_143}).delta_max == 262_143
        with pytest.raises(ParamError) as err:
            validate_params({"B": 1, "delta_max": 262_144})
        assert str(err.value) == (
            "delta_max=262144, B=1 give 1048580 states, above the ceiling of 1048576"
        )
        # a ceiling breach is reported before the truncation guard
        with pytest.raises(ParamError) as err:
            validate_params({"B": 100_000, "delta_max": 19})
        assert str(err.value) == (
            "delta_max=19, B=100000 give 4000040 states, above the ceiling of "
            "1048576; delta_max=19 below guard 20 (10*ceil(1/p_s)); set "
            "allow_tight_truncation to override"
        )

    def test_all_violations_reported_together(self):
        # range problems first, then the battery capacity
        with pytest.raises(ParamError) as err:
            validate_params({"p_e": 2.0, "B": 0, "N": -1})
        assert str(err.value) == "p_e=2.0 outside [0, 1]; N=-1 < 0; B=0 < 1"

    def test_a_range_problem_hides_the_ceiling_and_the_guard(self):
        # the ceiling and the guard are checked only when nothing else failed
        with pytest.raises(ParamError) as err:
            validate_params({"p_e": 2.0, "B": 100_000, "delta_max": 19})
        assert str(err.value) == "p_e=2.0 outside [0, 1]"

    def test_unknown_field(self):
        with pytest.raises(ParamError, match="unknown"):
            validate_params({"battery": 3})

    def test_negative_relay_count(self):
        with pytest.raises(ParamError, match="N=-1"):
            validate_params({"N": -1})

    def test_integer_probability_normalized(self):
        p = validate_params({"p_s": 1, "delta_max": 10,
                             "allow_tight_truncation": True})
        assert isinstance(p.p_s, float) and p.p_s == 1.0

    @given(ps=st.floats(0.05, 1.0))
    def test_guard_formula(self, ps):
        p = small(p_s=ps)
        assert p.truncation_guard() == 10 * math.ceil(1.0 / ps)


class TestParamsStamp:
    def test_each_physical_field_changes_stamp(self):
        base = SystemParams()
        seen = {params_stamp(base)}
        for variant in (
            SystemParams(p_s=0.9),
            SystemParams(p_v=0.3),
            SystemParams(p_q=0.25),
            SystemParams(p_e=0.06),
            SystemParams(B=9),
            SystemParams(N=5),
            SystemParams(delta_max=101),
        ):
            seen.add(params_stamp(variant))
        assert len(seen) == 8

    def test_validation_switch_not_stamped(self):
        a = SystemParams(delta_max=100)
        b = SystemParams(delta_max=100, allow_tight_truncation=True)
        assert params_stamp(a) == params_stamp(b)


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        raw = parse_config(
            "# a comment\n"
            "p_e = 0.3\n"
            "B = 4  # trailing comment\n"
            "\n"
            "allow_tight_truncation = true\n"
        )
        assert raw == {"p_e": 0.3, "B": 4, "allow_tight_truncation": True}
        assert isinstance(raw["B"], int)

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value'"):
            parse_config("p_e = 0.1\nnot a config line\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="^line 3: unknown key 'battery'"):
            parse_config("\n\nbattery = 7\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("B = many\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("B = 2\nB = 3\n")

    def test_format_round_trip(self):
        p = small(p_e=0.125, p_q=0.4)
        assert validate_params(parse_config(config_text(p))) == p

    @given(
        ps=st.floats(0.1, 1.0),
        pv=st.floats(0.0, 1.0),
        # a subnormal p_q is refused (test_subnormal_query_rate)
        pq=st.floats(0.0, 1.0, allow_subnormal=False),
        pe=st.floats(0.0, 1.0),
        B=st.integers(1, 20),
        N=st.integers(0, 12),
        dm=st.integers(1, 50),
    )
    def test_round_trip_any_valid_params(self, ps, pv, pq, pe, B, N, dm):
        p = SystemParams(p_s=ps, p_v=pv, p_q=pq, p_e=pe, B=B, N=N,
                         delta_max=dm, allow_tight_truncation=True)
        assert validate_params(parse_config(config_text(p))) == p
