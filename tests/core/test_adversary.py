"""Unit tests for eta bounds and adversary strategies."""

import math
import pickle

import numpy as np
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
from repro.core.adversary import BLOCK


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
        # ...and consumes no draw: the next shift is the stream's first.
        (first,) = _scalar_shifts(4, "gaussian", 0.5, [self.BOUND])
        assert adversary.choose(1, 0.0, False, 0.0, self.BOUND) == first

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_sigma_fraction_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="^sigma_fraction=.* must be finite and non-negative"):
            RandomAdversary(seed=1, distribution="gaussian", sigma_fraction=value)


def _scalar_shifts(seed, distribution, sigma_fraction, bounds):
    """One scalar NumPy call per shift, as ``choose`` drew them before blocks."""
    rng = np.random.default_rng(seed)
    shifts = []
    for bound in bounds:
        if distribution == "uniform":
            shifts.append(rng.uniform(-bound.eta_minus, bound.eta_plus))
            continue
        sigma = sigma_fraction * bound.width / 2.0
        shifts.append(0.0 if sigma == 0.0 else bound.clip(rng.normal(0.0, sigma)))
    return shifts


def _choices(adversary, bounds):
    return [adversary.choose(i, 0.0, i % 2 == 0, 0.0, b) for i, b in enumerate(bounds)]


def _hex(values):
    """Exact float images: ``==`` would equate -0.0 and 0.0."""
    return [float(v).hex() for v in values]


class TestRandomAdversaryBlocks:
    """Block draws return, bit for bit, the floats of one scalar call each."""

    #: Bounds of the shipped eta chain, and one-sided and zero-width ones.
    BOUNDS = [
        EtaBound(0.05, 0.25896795970863745),
        EtaBound(0.1, 0.0),
        EtaBound(0.0, 0.2),
        EtaBound(0.0, 0.0),
    ]
    SEEDS = [7, np.random.SeedSequence(2018).spawn(3)[1]]
    #: (distribution, sigma_fraction); 2.0 makes the gaussian clip fire.
    KINDS = [("uniform", 0.5), ("gaussian", 0.5), ("gaussian", 2.0)]
    KIND_IDS = ["uniform", "gaussian", "gaussian-clipped"]

    @pytest.mark.parametrize("seed", SEEDS, ids=["int", "SeedSequence-child"])
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 1000])
    def test_draws_equal_one_scalar_call_each(self, seed, kind, count):
        distribution, sigma_fraction = kind
        for bound in self.BOUNDS:
            bounds = [bound] * count
            adversary = RandomAdversary(seed, distribution, sigma_fraction)
            assert _hex(_choices(adversary, bounds)) == _hex(
                _scalar_shifts(seed, distribution, sigma_fraction, bounds)
            ), bound

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_a_bound_that_changes_between_calls_maps_the_same_draws(self, kind):
        # Zero-width gaussian calls in between consume no draw.
        picks = np.random.default_rng(0).integers(len(self.BOUNDS), size=300)
        bounds = [self.BOUNDS[k] for k in picks]
        adversary = RandomAdversary(11, *kind)
        assert _hex(_choices(adversary, bounds)) == _hex(_scalar_shifts(11, *kind, bounds))

    def test_reset_mid_block_restarts_the_stream(self):
        bounds = [self.BOUNDS[0]] * 200
        adversary = RandomAdversary(seed=3)
        _choices(adversary, bounds[: BLOCK + 10])
        adversary.reset()
        assert _hex(_choices(adversary, bounds)) == _hex(_scalar_shifts(3, "uniform", 0.5, bounds))

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_pickle_mid_block_continues_the_stream(self, kind):
        bounds = [self.BOUNDS[0]] * 300
        head, tail = bounds[: BLOCK + 10], bounds[BLOCK + 10 :]
        adversary = RandomAdversary(5, *kind)
        first = _choices(adversary, head)
        clone = pickle.loads(pickle.dumps(adversary))
        rest = _choices(clone, tail)
        assert _hex(first + rest) == _hex(_scalar_shifts(5, *kind, bounds))
        assert _hex(_choices(adversary, tail)) == _hex(rest)

    def test_rng_stands_at_the_end_of_the_block(self):
        adversary = RandomAdversary(seed=8)
        _choices(adversary, [self.BOUNDS[0]] * 10)
        stream = np.random.default_rng(8).random(size=BLOCK + 1)
        assert adversary.rng.random() == stream[BLOCK]

    def test_choose_is_defined_on_the_class(self):
        # Tracers count draws by replacing the class attribute, so an
        # instance must not shadow it with a bound method of its own.
        adversary = RandomAdversary(seed=1)
        adversary.choose(0, 0.0, True, 0.0, self.BOUNDS[0])
        assert "choose" in RandomAdversary.__dict__
        assert "choose" not in vars(adversary)


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

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match="^period=.* must be finite and positive"):
            SineAdversary(period=period)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_phase_must_be_finite(self, phase):
        with pytest.raises(ValueError, match="^phase=.* must be finite"):
            SineAdversary(period=1.0, phase=phase)
