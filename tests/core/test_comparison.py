"""Integration tests for the §4.3 comparison engine (reduced horizons)."""

import hashlib
import json

import pytest

from repro.core import (
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    TUNNEL_MH_TO_HA,
    run_full_comparison,
)
from repro.core.comparison import receiver_mobility_run, sender_mobility_run
from repro.mld import MldConfig

# A small MLD configuration keeps leave-delay horizons short in tests.
FAST_MLD = MldConfig(
    query_interval=15.0,
    query_response_interval=5.0,
    startup_query_interval=4.0,
)


class TestReceiverRun:
    def test_local_row_shape(self):
        row = receiver_mobility_run(
            LOCAL_MEMBERSHIP, seed=1, mld=FAST_MLD, measure_leave=True
        )
        assert row["approach"] == "local"
        assert 1.0 < row["join_delay"] < 3.0
        assert 0 < row["leave_delay"] <= FAST_MLD.multicast_listener_interval
        assert row["ha_encapsulations"] == 0
        assert row["tunnel_overhead"] == 0
        assert row["stretch"] == pytest.approx(1.0, rel=0.15)

    def test_bidir_row_shape(self):
        row = receiver_mobility_run(
            BIDIRECTIONAL_TUNNEL, seed=1, mld=FAST_MLD, measure_leave=False
        )
        assert row["join_delay"] < 3.0
        assert row["ha_encapsulations"] > 50
        assert row["tunnel_overhead"] > 0
        assert row["stretch"] > 1.1
        assert row["ha_groups_on_behalf"] == 1
        assert row["mn_decapsulations"] > 50

    def test_wait_for_query_join_delay(self):
        row = receiver_mobility_run(
            LOCAL_MEMBERSHIP, seed=1, mld=FAST_MLD,
            unsolicited=False, measure_leave=False,
        )
        # must wait for a query: delay > handoff pipeline, < cycle + MRD
        assert row["join_delay"] > 2.0
        assert row["join_delay"] <= 15.0 + 5.0 + 2.0


class TestSenderRun:
    def test_local_sender_rebuilds_tree(self):
        row = sender_mobility_run(LOCAL_MEMBERSHIP, seed=1, mld=FAST_MLD,
                                  run_until=70.0)
        assert row["new_sg_entries"] == 5
        assert row["tunnel_overhead"] == 0
        assert len(row["flood_links"]) >= 4

    def test_tunnel_sender_keeps_tree(self):
        row = sender_mobility_run(BIDIRECTIONAL_TUNNEL, seed=1, mld=FAST_MLD,
                                  run_until=70.0)
        assert row["new_sg_entries"] == 0
        assert row["tunnel_overhead"] > 0
        assert row["reverse_tunneled"] > 100
        assert row["mn_encapsulations"] > 100

    def test_interruption_bounded_by_handoff_pipeline(self):
        row = sender_mobility_run(TUNNEL_MH_TO_HA, seed=1, mld=FAST_MLD,
                                  run_until=70.0)
        assert row["interruption"] is not None
        assert row["interruption"] < 3.0


class TestFullComparison:
    @pytest.fixture(scope="class")
    def report(self):
        return run_full_comparison(seed=2, mld=FAST_MLD)

    def test_all_paper_claims_hold(self, report):
        failed = [c for c in report.claims if not c[1]]
        assert not failed, failed

    def test_rows_per_approach(self, report):
        assert {r["approach"] for r in report.receiver_rows} == {
            "local", "bidir", "ut-mh-ha", "ut-ha-mh",
        }
        assert len(report.sender_rows) == 4

    def test_render_is_complete(self, report):
        text = report.render()
        assert "join delay" in text
        assert "Mobile sender" in text
        assert "[PASS]" in text and "[FAIL]" not in text

    def test_claims_count(self, report):
        # 2 join-delay claims + 4 leave + 2 optimality + 2 load + 3 sender
        # + 2 uni-directional inheritances
        assert len(report.claims) >= 12

    def test_rows_digest(self, report):
        """The rows, byte for byte: tunnel_overhead and the mld/pim/mipv6
        byte counts are the per-link stats charges summed."""
        rows = {
            "receiver": report.receiver_rows,
            "sender": report.sender_rows,
            "join_study": report.join_study_rows,
        }
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c64a5b1ac31caf30c4c02cc62be7bcb57f7f7d64429130854f0a96c86b47a023"
        )
