"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.statistics import (
    Histogram,
    arithmetic_mean,
    f1_score,
    geometric_mean,
    normalise,
)


class TestGeometricMean:
    def test_single_value(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=30))
    def test_bounded_by_min_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=30),
           st.floats(min_value=0.5, max_value=2.0))
    def test_scaling(self, values, factor):
        scaled = geometric_mean([v * factor for v in values])
        assert scaled == pytest.approx(geometric_mean(values) * factor,
                                       rel=1e-9)


class TestArithmeticMean:
    def test_known(self):
        assert arithmetic_mean([1, 2, 3]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])


class TestNormalise:
    def test_basic(self):
        out = normalise({"a": 2.0, "b": 3.0}, {"a": 1.0, "b": 6.0})
        assert out == {"a": 2.0, "b": 0.5}

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            normalise({"a": 1.0}, {"b": 1.0})

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            normalise({"a": 1.0}, {"a": 0.0})


class TestF1Score:
    def test_perfect(self):
        assert f1_score(10, 0, 0) == pytest.approx(1.0)

    def test_unused_entry_scores_zero(self):
        assert f1_score(0, 0, 0) == 0.0

    def test_all_wrong(self):
        assert f1_score(0, 5, 5) == 0.0

    def test_balanced(self):
        # precision 0.5, recall 0.5 -> F1 0.5.
        assert f1_score(5, 5, 5) == pytest.approx(0.5)

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_in_unit_interval(self, tp, fp, fn):
        assert 0.0 <= f1_score(tp, fp, fn) <= 1.0

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_matches_harmonic_mean_definition(self, tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            expected = 0.0
        else:
            expected = 2 * precision * recall / (precision + recall)
        assert f1_score(tp, fp, fn) == pytest.approx(expected)


class TestHistogram:
    def test_add_and_count(self):
        h = Histogram(["a", "b"])
        h.add("a")
        h.add("a", 2)
        assert h.count("a") == 3
        assert h.count("b") == 0
        assert h.total() == 3

    def test_unknown_bucket_raises(self):
        h = Histogram(["a"])
        with pytest.raises(KeyError):
            h.add("nope")

    def test_negative_count_raises(self):
        h = Histogram(["a"])
        with pytest.raises(ValueError):
            h.add("a", -1)

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(["a", "a"])

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram([])

    def test_percentages_default_denominator(self):
        h = Histogram(["a", "b"])
        h.add("a", 3)
        h.add("b", 1)
        pct = h.percentages()
        assert pct["a"] == pytest.approx(75.0)
        assert pct["b"] == pytest.approx(25.0)

    def test_percentages_custom_denominator(self):
        h = Histogram(["a"])
        h.add("a", 25)
        assert h.percentages(denominator=100)["a"] == pytest.approx(25.0)

    def test_percentages_empty(self):
        h = Histogram(["a"])
        assert h.percentages() == {"a": 0.0}

    def test_merge(self):
        h1 = Histogram(["a", "b"])
        h2 = Histogram(["a", "b"])
        h1.add("a", 2)
        h2.add("b", 3)
        h1.merge(h2)
        assert h1.counts() == {"a": 2, "b": 3}

    def test_merge_mismatched_raises(self):
        with pytest.raises(ValueError):
            Histogram(["a"]).merge(Histogram(["b"]))


class TestMeanInequality:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=20))
    def test_geometric_never_exceeds_arithmetic(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) * (1 + 1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.integers(min_value=1, max_value=10))
    def test_constant_sequence(self, value, n):
        assert geometric_mean([value] * n) == pytest.approx(value)
        assert arithmetic_mean([value] * n) == pytest.approx(value)


class TestNormaliseProperties:
    def test_self_normalisation_is_one(self):
        ipc = {"lbm": 1.7, "mcf": 0.4}
        assert normalise(ipc, ipc) == {"lbm": 1.0, "mcf": 1.0}

    def test_extra_baseline_keys_are_ignored(self):
        assert normalise({"a": 2.0}, {"a": 4.0, "b": 1.0}) == {"a": 0.5}


class TestHistogramProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=3, max_size=3))
    def test_percentages_sum_to_one_hundred(self, counts):
        h = Histogram(["a", "b", "c"])
        for name, count in zip("abc", counts):
            h.add(name, count)
        total = sum(h.percentages().values())
        assert total == pytest.approx(100.0 if sum(counts) else 0.0)

    def test_merge_is_commutative(self):
        left, right = Histogram(["x", "y"]), Histogram(["x", "y"])
        left.add("x", 3)
        right.add("y", 5)
        a, b = Histogram(["x", "y"]), Histogram(["x", "y"])
        a.merge(left)
        a.merge(right)
        b.merge(right)
        b.merge(left)
        assert a.counts() == b.counts() == {"x": 3, "y": 5}

    def test_counts_is_a_copy(self):
        h = Histogram(["x"])
        h.counts()["x"] = 99
        assert h.count("x") == 0
