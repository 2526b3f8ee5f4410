"""Streaming aggregates: histograms, merges and document round trips."""

from __future__ import annotations

import pytest

from repro.population.aggregate import FixedBinHistogram, StreamingAggregate


class TestFixedBinHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedBinHistogram(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            FixedBinHistogram(5.0, 5.0, 4)

    def test_add_routes_to_bins_and_overflow(self):
        histogram = FixedBinHistogram(0.0, 10.0, 10)
        for value in (-1.0, 0.0, 5.5, 9.999, 10.0, 42.0):
            histogram.add(value)
        assert histogram.total == 6
        assert histogram.underflow == 1
        assert histogram.overflow == 2
        assert histogram.counts[0] == 1
        assert histogram.counts[5] == 1
        assert histogram.counts[9] == 1

    def test_add_many_matches_add(self):
        values = [x * 0.37 - 3.0 for x in range(200)]
        one_by_one = FixedBinHistogram(0.0, 50.0, 25)
        for value in values:
            one_by_one.add(value)
        bulk = FixedBinHistogram(0.0, 50.0, 25)
        bulk.add_many(values)
        assert bulk.to_document() == one_by_one.to_document()

    def test_merge_is_associative_accumulation(self):
        a = FixedBinHistogram(0.0, 10.0, 10)
        b = FixedBinHistogram(0.0, 10.0, 10)
        a.add_many([1.0, 2.0, 11.0])
        b.add_many([-1.0, 2.0, 3.0])
        merged = FixedBinHistogram.from_document(a.to_document())
        merged.merge(b)
        everything = FixedBinHistogram(0.0, 10.0, 10)
        everything.add_many([1.0, 2.0, 11.0, -1.0, 2.0, 3.0])
        assert merged.to_document() == everything.to_document()

    def test_merge_rejects_mismatched_binning(self):
        with pytest.raises(ValueError, match="different binning"):
            FixedBinHistogram(0.0, 10.0, 10).merge(FixedBinHistogram(0.0, 10.0, 5))

    def test_quantiles(self):
        histogram = FixedBinHistogram(0.0, 100.0, 100)
        histogram.add_many(float(v) for v in range(100))
        assert histogram.quantile(0.0) == pytest.approx(0.5)
        assert histogram.quantile(0.5) == pytest.approx(50.0, abs=1.0)
        assert histogram.quantile(1.0) == pytest.approx(99.5, abs=1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_quantile_empty_is_none(self):
        assert FixedBinHistogram(0.0, 1.0, 4).quantile(0.5) is None

    def test_quantile_clamps_to_edges_for_outliers(self):
        histogram = FixedBinHistogram(0.0, 10.0, 10)
        histogram.add_many([-5.0, -4.0, 20.0, 30.0])
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 10.0

    def test_document_round_trip(self):
        histogram = FixedBinHistogram(-5.0, 5.0, 20)
        histogram.add_many([-6.0, -1.0, 0.0, 4.9, 5.0])
        restored = FixedBinHistogram.from_document(histogram.to_document())
        assert restored.to_document() == histogram.to_document()

    def test_from_document_rejects_wrong_count_length(self):
        document = FixedBinHistogram(0.0, 1.0, 4).to_document()
        document["counts"] = [0, 0]
        with pytest.raises(ValueError):
            FixedBinHistogram.from_document(document)


class TestStreamingAggregate:
    def test_fold_counts_and_rates(self):
        aggregate = StreamingAggregate()
        aggregate.fold("ntpd", True, shift=-500.0, minutes=15.5)
        aggregate.fold("ntpd", False)
        aggregate.fold("chrony", True, shift=100.0, minutes=60.0)
        assert aggregate.total == 3
        assert aggregate.successes == 2
        assert aggregate.success_rate == pytest.approx(2 / 3)
        document = aggregate.to_document()
        assert document["by_type"]["ntpd"] == {"runs": 2, "successes": 1}
        assert document["by_type"]["chrony"] == {"runs": 1, "successes": 1}
        assert document["shift_histogram"]["total"] == 2

    def test_merge_equals_single_fold(self):
        left, right, everything = (
            StreamingAggregate(),
            StreamingAggregate(),
            StreamingAggregate(),
        )
        rows = [
            ("ntpd", True, -400.0, 20.0),
            ("chrony", False, None, None),
            ("ntpd", True, -510.0, 16.0),
            ("android", False, 3.0, 180.0),
        ]
        for index, (kind, ok, shift, minutes) in enumerate(rows):
            target = left if index % 2 == 0 else right
            target.fold(kind, ok, shift=shift, minutes=minutes)
            everything.fold(kind, ok, shift=shift, minutes=minutes)
        left.merge(right)
        assert left.to_document() == everything.to_document()

    def test_document_round_trip(self):
        aggregate = StreamingAggregate()
        aggregate.fold("ntpd", True, shift=-500.0, minutes=15.5)
        restored = StreamingAggregate.from_document(aggregate.to_document())
        assert restored.to_document() == aggregate.to_document()

    def test_empty_aggregate(self):
        aggregate = StreamingAggregate()
        assert aggregate.success_rate == 0.0
        assert aggregate.to_document()["shift_quantiles"]["p50"] is None
