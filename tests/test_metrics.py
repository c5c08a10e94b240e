"""Step rules, trace folding, and the hand-derived reference trace."""

import pytest
from hypothesis import given, strategies as st

from semsched.core import MetricKind
from semsched.metrics import (
    SlotEvents,
    evolve_trace,
    format_trace_table,
    parse_events_table,
    stage_cost,
    step_aoi,
    step_vaoi,
)

events_st = st.builds(
    SlotEvents,
    delivered=st.integers(0, 1),
    new_version=st.integers(0, 1),
    query=st.integers(0, 1),
)


class TestStepRules:
    def test_aoi_examples(self):
        assert step_aoi(4, True, 100) == 1
        assert step_aoi(4, False, 100) == 5
        assert step_aoi(100, False, 100) == 100

    def test_vaoi_examples(self):
        assert step_vaoi(3, True, False, 100) == 0
        assert step_vaoi(4, False, True, 100) == 5
        assert step_vaoi(3, False, False, 100) == 3

    def test_delivery_with_coinciding_generation(self):
        # the in-flight sample cannot contain a version born this slot
        assert step_vaoi(7, True, True, 100) == 1

    def test_stage_cost_examples(self):
        assert stage_cost(MetricKind.QVAOI, 7, 0) == 0
        assert stage_cost(MetricKind.QAOI, 7, 1) == 7
        assert stage_cost(MetricKind.AOI, 7, 0) == 7

    @given(m=st.integers(0, 99), flag=st.booleans())
    def test_aoi_monotone_in_metric(self, m, flag):
        assert step_aoi(m, flag, 100) <= step_aoi(m + 1, flag, 100)

    @given(m=st.integers(0, 99), d=st.booleans(), v=st.booleans())
    def test_vaoi_monotone_in_metric(self, m, d, v):
        assert step_vaoi(m, d, v, 100) <= step_vaoi(m + 1, d, v, 100)


# Hand-folded reference sequence: a delivery, a quiet stretch with five
# generations and four queries, then a second delivery. Expected values
# worked out by hand from the two step rules before implementation.
REFERENCE_EVENTS = [
    SlotEvents(*e) for e in [
        (0, 1, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 0),
        (0, 1, 1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0),
        (0, 0, 1), (1, 0, 0),
    ]
]
REFERENCE_AOI = [20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1]
REFERENCE_VAOI = [1, 0, 0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 0]
REFERENCE_QAOI = [0, 0, 0, 0, 4, 0, 6, 0, 0, 9, 0, 0, 12, 0]
REFERENCE_QVAOI = [0, 0, 0, 0, 2, 0, 3, 0, 0, 4, 0, 0, 5, 0]


class TestEvolveTrace:
    def test_reference_trace_exact(self):
        t = evolve_trace(REFERENCE_EVENTS, delta_max=20)
        assert t.aoi == REFERENCE_AOI
        assert t.vaoi == REFERENCE_VAOI
        assert t.qaoi == REFERENCE_QAOI
        assert t.qvaoi == REFERENCE_QVAOI

    def test_reference_trace_landmarks(self):
        t = evolve_trace(REFERENCE_EVENTS, delta_max=20)
        assert t.aoi[1] == 1 and t.vaoi[1] == 0  # first delivery
        assert t.vaoi[12] == 5  # five generations accumulated
        assert t.qvaoi[12] == 5  # last query sees the full lag
        assert all(q == 0 for i, q in enumerate(t.qvaoi)
                   if not REFERENCE_EVENTS[i].query)

    def test_all_false_events(self):
        k = 30
        t = evolve_trace([SlotEvents(0, 0, 0)] * k, delta_max=10)
        assert t.aoi == [10] * k  # already saturated at the initial value
        assert t.vaoi == [0] * k

    def test_delivery_and_generation_every_slot(self):
        t = evolve_trace([SlotEvents(1, 1, 0)] * 10, delta_max=100)
        assert t.aoi == [1] * 10
        assert t.vaoi == [1] * 10

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="event sequence is empty"):
            evolve_trace([], delta_max=10)

    def test_series_lengths(self):
        t = evolve_trace([SlotEvents(0, 1, 1)] * 7, delta_max=5)
        assert len(t.aoi) == 7 == len(t.vaoi) == len(t.qvaoi)

    @given(st.lists(events_st, min_size=1, max_size=60))
    def test_gated_series_zero_or_equal(self, events):
        t = evolve_trace(events, delta_max=15)
        for i in range(len(events)):
            assert t.qaoi[i] in (0, t.aoi[i])
            assert t.qvaoi[i] in (0, t.vaoi[i])
            if events[i].query:
                assert t.qaoi[i] == t.aoi[i]

    @given(st.lists(events_st, min_size=1, max_size=60))
    def test_version_lag_below_age(self, events):
        # one generation per slot at most, so lag can't outrun age
        t = evolve_trace(events, delta_max=25)
        assert all(v <= a for v, a in zip(t.vaoi, t.aoi))

    @given(
        st.lists(events_st, min_size=2, max_size=40),
        st.integers(1, 20),
    )
    def test_a_prefix_folds_to_the_head_of_the_trace(self, events, cut_raw):
        # each slot depends on the slots before it only
        cut = cut_raw % (len(events) - 1) + 1
        whole = evolve_trace(events, delta_max=12)
        head = evolve_trace(events[:cut], delta_max=12)
        assert head.aoi == whole.aoi[:cut]
        assert head.vaoi == whole.vaoi[:cut]
        assert head.qaoi == whole.qaoi[:cut]
        assert head.qvaoi == whole.qvaoi[:cut]


class TestTraceTableIO:
    def test_round_trip(self):
        text = format_trace_table(
            REFERENCE_EVENTS, evolve_trace(REFERENCE_EVENTS, delta_max=20)
        )
        again = parse_events_table(text)
        assert again == REFERENCE_EVENTS

    def test_header_and_comments_tolerated(self):
        events = parse_events_table(
            "# free-form comment\n"
            "delivered new_version query\n"
            "1 0 1\n"
            "0 1 0  # inline\n"
        )
        assert events == [SlotEvents(1, 0, 1), SlotEvents(0, 1, 0)]

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_events_table("2 0 0\n")

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="3 flag columns"):
            parse_events_table("1 0\n")
