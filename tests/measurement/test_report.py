"""Tests for the report formatting helpers."""

from repro.measurement.report import format_percentage, format_table


class TestFormatPercentage:
    def test_basic(self):
        assert format_percentage(0.694) == "69.40%"

    def test_decimals(self):
        assert format_percentage(0.12345, decimals=1) == "12.3%"

    def test_zero_and_one(self):
        assert format_percentage(0.0) == "0.00%"
        assert format_percentage(1.0) == "100.00%"


class TestFormatTable:
    def test_contains_headers_rows_and_title(self):
        text = format_table(
            ["Client", "Duration"],
            [["ntpd", "17 min"], ["chrony", "57 min"]],
            title="Table II",
        )
        lines = text.splitlines()
        assert lines[0] == "Table II"
        assert "Client" in lines[1] and "Duration" in lines[1]
        assert any("ntpd" in line for line in lines)
        assert any("chrony" in line for line in lines)

    def test_columns_aligned(self):
        text = format_table(["a", "b"], [["xxxxx", "1"], ["y", "22"]])
        data_lines = text.splitlines()[2:]
        positions = {line.index(line.split()[-1]) for line in data_lines}
        assert len(positions) == 1

    def test_handles_non_string_cells(self):
        text = format_table(["n", "value"], [[1, 0.5], [2, None]])
        assert "None" in text and "0.5" in text


class TestSweepReport:
    MANIFEST = {
        "sweep_id": "s1",
        "name": "table2",
        "status": "complete",
        "created_at": "2026-08-08T00:00:00",
        "git_revision": "abc123",
    }

    def test_renders_manifest_and_runs(self):
        from repro.measurement.report import sweep_report

        records = [
            {
                "index": 0,
                "spec": {"scenario": "table2_runtime_attack", "params": []},
                "result": {"ok": True},
                "wall_time": 1.25,
                "error": None,
                "error_kind": None,
            },
            {
                "index": 1,
                "spec": {"scenario": "table2_runtime_attack", "params": []},
                "result": None,
                "wall_time": 0.5,
                "error": "worker process died (pool respawned)",
                "error_kind": "worker-crash",
            },
        ]
        text = sweep_report(self.MANIFEST, records)
        assert "sweep s1 (table2)" in text
        assert "status: complete" in text
        assert "2 recorded, 1 failed" in text
        assert "worker-crash" in text
        assert "1.250s" in text

    def test_later_records_win_and_loose_records_counted(self):
        from repro.measurement.report import sweep_report

        spec = {"scenario": "x", "params": []}
        records = [
            {"index": 0, "spec": spec, "error": "boom", "error_kind": "timeout"},
            {"index": 0, "spec": spec, "error": None, "error_kind": None},
            {"kind": "bench-sample", "metrics": {"m": 1.0}},
        ]
        text = sweep_report(self.MANIFEST, records)
        assert "1 recorded, 0 failed, 1 metric sample(s)" in text

    def test_empty_sweep_renders_header_only(self):
        from repro.measurement.report import sweep_report

        text = sweep_report(self.MANIFEST, [])
        assert "0 recorded" in text
