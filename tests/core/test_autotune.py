"""Stream-count auto-tuning (§8 future work)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tune.planner import estimate_bdp, recommend_streams


class TestBdp:
    def test_known_value(self):
        assert estimate_bdp(9e6, 0.043) == pytest.approx(387_000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_bdp(0, 0.01)
        with pytest.raises(ValueError):
            estimate_bdp(1e6, -1)


class TestRecommendation:
    def test_paper_links(self):
        # Delft-Sophia: the paper's best measurement used 8 streams.
        assert recommend_streams(9e6, 0.043, 65536) == 8
        # Amsterdam-Rennes: low BDP — a single stream covers the window,
        # only loss resilience argues for more.
        assert recommend_streams(1.6e6, 0.030, 65536) == 1

    def test_lan_needs_one(self):
        assert recommend_streams(12.5e6, 0.0001, 65536) == 1

    def test_bigger_buffers_need_fewer_streams(self):
        small = recommend_streams(9e6, 0.043, 65536)
        big = recommend_streams(9e6, 0.043, 1 << 20)
        assert big < small

    def test_capped_at_max(self):
        assert recommend_streams(1e9, 0.2, 65536, max_streams=16) == 16

    def test_rejects_bad_rcvbuf(self):
        with pytest.raises(ValueError):
            recommend_streams(1e6, 0.01, 0)

    @given(
        st.floats(min_value=1e5, max_value=1e9),
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1024, max_value=1 << 22),
    )
    def test_always_in_range_and_monotone_in_bdp(self, capacity, rtt, rcvbuf):
        n = recommend_streams(capacity, rtt, rcvbuf)
        assert 1 <= n <= 16
        # doubling the BDP never reduces the recommendation
        n2 = recommend_streams(capacity * 2, rtt, rcvbuf)
        assert n2 >= n
