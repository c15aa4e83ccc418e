"""Tests for the Table 1 registry and its executable demos."""

import pytest

from repro.functions.library import (DemoPacket, format_table,
                                     run_demos, table1)


class TestTable1Registry:
    def test_row_count_and_categories(self):
        entries = table1()
        assert len(entries) >= 16
        categories = {e.category for e in entries}
        assert "Load Balancing" in categories
        assert "Datacenter QoS" in categories
        assert "Stateful firewall" in categories

    def test_every_row_needs_state_and_computation(self):
        # The paper's core observation: these functions all need
        # data-plane state and computation.
        for entry in table1():
            assert entry.data_plane_state, entry.name
            assert entry.data_plane_computation, entry.name

    def test_supported_entries_have_demos(self):
        for entry in table1():
            if entry.eden_out_of_box:
                assert entry.demo is not None, entry.name

    def test_unsupported_entries_explain_why(self):
        for entry in table1():
            if not entry.eden_out_of_box:
                assert entry.notes, entry.name

    def test_network_support_rows_not_out_of_box(self):
        # Functions needing in-network support (Conga, Duet, explicit
        # rate control) are exactly the load-balancing/cc ones the
        # paper marks unsupported.
        for entry in table1():
            if entry.network_support:
                assert not entry.eden_out_of_box, entry.name

    def test_specific_rows_match_paper(self):
        by_name = {e.name: e for e in table1()}
        assert by_name["WCMP"].eden_out_of_box
        assert not by_name["CONGA"].eden_out_of_box
        assert by_name["Pulsar"].app_semantics
        assert by_name["PIAS"].eden_out_of_box
        assert not by_name["IDS (e.g. Snort)"].eden_out_of_box
        assert by_name["Port knocking"].eden_out_of_box


class TestDemos:
    def test_all_demos_pass_interpreted(self):
        results = run_demos(backend="interpreter")
        assert results and all(results.values()), results

    def test_all_demos_pass_tree(self):
        results = run_demos(backend="tree")
        assert results and all(results.values()), results

    def test_demo_count_matches_supported_rows(self):
        supported = [e for e in table1() if e.eden_out_of_box]
        assert len(run_demos()) == len(supported)


class TestFormatting:
    def test_format_table_lists_every_row(self):
        text = format_table()
        for entry in table1():
            assert entry.name[:42] in text

    def test_format_marks_approximate_semantics(self):
        assert "~yes" in format_table()


class TestDemoPacket:
    def test_has_all_packet_schema_fields(self):
        from repro.lang import DEFAULT_PACKET_SCHEMA
        packet = DemoPacket()
        for field in DEFAULT_PACKET_SCHEMA.fields:
            assert hasattr(packet, field.name), field.name
