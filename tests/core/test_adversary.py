"""Unit tests for eta bounds and adversary strategies."""

import math

import pytest

from repro.core import (
    BestCaseAdversary,
    DeCancelAdversary,
    EtaBound,
    RandomAdversary,
    SequenceAdversary,
    SineAdversary,
    WorstCaseAdversary,
    ZeroAdversary,
)


class TestEtaBound:
    def test_basic_properties(self):
        bound = EtaBound(0.1, 0.2)
        assert bound.eta_plus == 0.1
        assert bound.eta_minus == 0.2
        assert bound.width == pytest.approx(0.3)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            EtaBound(-0.1, 0.0)
        with pytest.raises(ValueError):
            EtaBound(0.0, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bounds_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            EtaBound(0.05, value)
        with pytest.raises(ValueError, match="finite"):
            EtaBound(value, 0.05)

    def test_zero_and_symmetric(self):
        assert EtaBound.zero().width == 0.0
        sym = EtaBound.symmetric(0.25)
        assert sym.eta_plus == sym.eta_minus == 0.25

    def test_contains(self):
        bound = EtaBound(0.1, 0.2)
        assert bound.contains(0.1)
        assert bound.contains(-0.2)
        assert bound.contains(0.0)
        assert not bound.contains(0.11)
        assert not bound.contains(-0.21)

    def test_clip(self):
        bound = EtaBound(0.1, 0.2)
        assert bound.clip(0.5) == 0.1
        assert bound.clip(-0.5) == -0.2
        assert bound.clip(0.05) == 0.05

    def test_equality(self):
        assert EtaBound(0.1, 0.2) == EtaBound(0.1, 0.2)
        assert EtaBound(0.1, 0.2) != EtaBound(0.2, 0.1)


class TestDeterministicAdversaries:
    BOUND = EtaBound(0.1, 0.2)

    def test_zero(self):
        assert ZeroAdversary().choose(0, 0.0, True, 0.0, self.BOUND) == 0.0

    def test_worst_case(self):
        adversary = WorstCaseAdversary()
        assert adversary.choose(0, 0.0, True, 0.0, self.BOUND) == 0.1
        assert adversary.choose(1, 0.0, False, 0.0, self.BOUND) == -0.2

    def test_best_case(self):
        adversary = BestCaseAdversary()
        assert adversary.choose(0, 0.0, True, 0.0, self.BOUND) == -0.2
        assert adversary.choose(1, 0.0, False, 0.0, self.BOUND) == 0.1

    def test_decancel(self):
        adversary = DeCancelAdversary()
        assert adversary.choose(0, 0.0, True, 0.0, self.BOUND) == -0.2
        assert adversary.choose(1, 0.0, False, 0.0, self.BOUND) == 0.1

    def test_sequence_helper(self):
        seq = WorstCaseAdversary().sequence(4, self.BOUND)
        assert seq == [0.1, -0.2, 0.1, -0.2]


class TestSequenceAdversary:
    BOUND = EtaBound(0.1, 0.2)

    def test_replay(self):
        adversary = SequenceAdversary([0.05, -0.1])
        assert adversary.choose(0, 0.0, True, 0.0, self.BOUND) == 0.05
        assert adversary.choose(1, 0.0, False, 0.0, self.BOUND) == -0.1

    def test_fill_value(self):
        adversary = SequenceAdversary([0.05], fill=0.01)
        assert adversary.choose(5, 0.0, True, 0.0, self.BOUND) == 0.01

    def test_inadmissible_raises(self):
        adversary = SequenceAdversary([0.5])
        with pytest.raises(ValueError):
            adversary.choose(0, 0.0, True, 0.0, self.BOUND)

    def test_clipping_mode(self):
        adversary = SequenceAdversary([0.5], clip=True)
        assert adversary.choose(0, 0.0, True, 0.0, self.BOUND) == 0.1


class TestRandomAdversary:
    BOUND = EtaBound(0.1, 0.2)

    def test_uniform_within_bounds(self):
        adversary = RandomAdversary(seed=1)
        for i in range(200):
            eta = adversary.choose(i, 0.0, bool(i % 2), 0.0, self.BOUND)
            assert self.BOUND.contains(eta)

    def test_gaussian_within_bounds(self):
        adversary = RandomAdversary(seed=2, distribution="gaussian")
        for i in range(200):
            eta = adversary.choose(i, 0.0, True, 0.0, self.BOUND)
            assert self.BOUND.contains(eta)

    def test_reset_reproduces_sequence(self):
        adversary = RandomAdversary(seed=3)
        first = [adversary.choose(i, 0.0, True, 0.0, self.BOUND) for i in range(5)]
        adversary.reset()
        second = [adversary.choose(i, 0.0, True, 0.0, self.BOUND) for i in range(5)]
        assert first == second

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            RandomAdversary(distribution="poisson")

    def test_zero_width_gaussian(self):
        adversary = RandomAdversary(seed=4, distribution="gaussian")
        assert adversary.choose(0, 0.0, True, 0.0, EtaBound.zero()) == 0.0


class TestSineAdversary:
    BOUND = EtaBound(0.1, 0.2)

    def test_within_bounds_over_a_period(self):
        adversary = SineAdversary(period=10.0)
        for k in range(50):
            eta = adversary.choose(k, k * 0.37, True, 0.0, self.BOUND)
            assert self.BOUND.contains(eta)

    def test_phase_shifts_pattern(self):
        a = SineAdversary(period=10.0, phase=0.0)
        b = SineAdversary(period=10.0, phase=math.pi)
        eta_a = a.choose(0, 2.5, True, 0.0, self.BOUND)
        eta_b = b.choose(0, 2.5, True, 0.0, self.BOUND)
        assert eta_a == pytest.approx(-eta_b * (self.BOUND.eta_plus / self.BOUND.eta_minus), rel=1e-6) or eta_a != eta_b

    def test_amplitude_fraction(self):
        adversary = SineAdversary(period=4.0, amplitude_fraction=0.5)
        eta = adversary.choose(0, 1.0, True, 0.0, self.BOUND)  # sin = 1 at t=1, period 4
        assert eta == pytest.approx(0.05)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SineAdversary(period=0.0)
        with pytest.raises(ValueError):
            SineAdversary(period=1.0, amplitude_fraction=2.0)
