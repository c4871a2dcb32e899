"""Tests for the saturating-counter Markov analysis (paper footnote 1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.markov import expected_drain_from_max, expected_drain_steps


class TestPaperFootnote:
    def test_footnote_1_value(self):
        """'Using a 3-bit counter initialised to the maximum value, it
        would take an expected 1,625 predictions before the entry reaches
        confidence 0' (70 % dependent)."""
        assert expected_drain_from_max(3, 0.7) == pytest.approx(1625, rel=0.01)


class TestClosedFormCases:
    def test_pure_decrement(self):
        """p=0: the counter walks straight down."""
        assert expected_drain_steps(3, 0.0, 7) == pytest.approx(7.0)
        assert expected_drain_steps(3, 0.0, 3) == pytest.approx(3.0)

    def test_start_at_zero(self):
        assert expected_drain_steps(3, 0.7, 0) == 0.0

    def test_one_bit_counter(self):
        """E_1 = 1/(1-p) for a 1-bit counter (geometric sojourn at the
        saturated state)."""
        for p in (0.0, 0.3, 0.5, 0.9):
            assert expected_drain_steps(1, p, 1) == pytest.approx(
                1.0 / (1.0 - p)
            )

    def test_monotone_in_start_state(self):
        table = [expected_drain_steps(3, 0.6, s) for s in range(8)]
        assert all(a < b for a, b in zip(table, table[1:]))

    def test_monotone_in_probability(self):
        assert (expected_drain_from_max(3, 0.5)
                < expected_drain_from_max(3, 0.6)
                < expected_drain_from_max(3, 0.7))

    def test_wider_counter_drains_slower(self):
        assert (expected_drain_from_max(2, 0.7)
                < expected_drain_from_max(3, 0.7)
                < expected_drain_from_max(4, 0.7))


class TestValidation:
    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            expected_drain_steps(3, 1.0, 7)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            expected_drain_steps(0, 0.5, 0)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            expected_drain_steps(3, 0.5, 8)
        with pytest.raises(ValueError):
            expected_drain_steps(3, 0.5, -1)


@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.05, max_value=0.6))
@settings(max_examples=10, deadline=None)
def test_property_matches_simulation(bits, p):
    """The closed form agrees with Monte-Carlo simulation."""
    maximum = (1 << bits) - 1
    rng = random.Random(12345)
    trials = 3000
    total = 0
    for _ in range(trials):
        state, steps = maximum, 0
        while state > 0 and steps < 1_000_000:
            steps += 1
            if rng.random() < p:
                state = min(maximum, state + 1)
            else:
                state -= 1
        total += steps
    simulated = total / trials
    exact = expected_drain_from_max(bits, p)
    assert simulated == pytest.approx(exact, rel=0.15)


class TestDrainFromMax:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_is_drain_from_the_saturated_state(self, bits):
        assert expected_drain_from_max(bits, 0.6) == expected_drain_steps(
            bits, 0.6, (1 << bits) - 1)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_pure_decrement_takes_one_step_per_state(self, bits):
        assert expected_drain_from_max(bits, 0.0) == pytest.approx(
            (1 << bits) - 1)

    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_one_bit_counter_is_geometric(self, p):
        assert expected_drain_from_max(1, p) == pytest.approx(1 / (1 - p))

    @given(st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.0, max_value=0.9))
    def test_never_faster_than_one_state_per_step(self, bits, p):
        for start in range(1 << bits):
            assert expected_drain_steps(bits, p, start) >= start - 1e-9
