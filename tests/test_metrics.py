"""Tests for the measurement helpers."""

import time

from repro.engine.obs import (
    Measurement,
    format_table,
    human_bytes,
    human_count,
    measure,
    peak_rss_mb,
)


class TestMeasure:
    def test_returns_result(self):
        m = measure(lambda: 42)
        assert m.result == 42

    def test_times_are_positive(self):
        m = measure(lambda: sum(range(100_000)))
        assert m.real_seconds > 0
        assert m.user_seconds >= 0

    def test_real_time_tracks_sleep(self):
        m = measure(lambda: time.sleep(0.05))
        assert m.real_seconds >= 0.04
        # Sleeping burns almost no user time.
        assert m.user_seconds < 0.04

    def test_peak_rss_reasonable(self):
        rss = peak_rss_mb()
        assert 5 < rss < 100_000

    def test_row_formatting(self):
        m = Measurement(real_seconds=1.5, user_seconds=1.25, peak_rss_mb=48.2)
        assert m.row() == ("1.500s", "1.250s", "48.2MB")


class TestHumanCount:
    def test_small(self):
        assert human_count(999) == "999"

    def test_thousands(self):
        assert human_count(7_000) == "7K"
        assert human_count(123_456) == "123K"

    def test_paper_style_large(self):
        assert human_count(11_232_000) == "11.2M"
        assert human_count(15_298_000) == "15.3M"

    def test_boundary(self):
        assert human_count(1000) == "1K"


class TestHumanBytes:
    def test_bytes(self):
        assert human_bytes(512) == "512B"

    def test_kb(self):
        assert human_bytes(2_500) == "2.5KB"

    def test_mb(self):
        assert human_bytes(27_200_000) == "27.2MB"


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert lines[0].endswith("bbb")
        # Every row has the same width.
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        out = format_table(["h"], [["v"]], title="T")
        assert out.startswith("T\n")

    def test_wide_cells_stretch_columns(self):
        out = format_table(["h"], [["very-wide-value"]])
        assert "very-wide-value" in out
