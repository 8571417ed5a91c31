"""Closed-form violation-ratio bounds and the quantum band."""

import math

import numpy as np
import pytest

from bellbound import (
    INFINITE,
    PureState,
    bound_report,
    dimension_settings_bound,
    projective_bound,
    quantum_band,
    schmidt_decompose,
    schmidt_settings_bound,
    schmidt_sum_bound,
    schmidt_sum_squared,
)
from helpers import random_pure_state


def _schmidt_of(coeffs):
    return schmidt_decompose(PureState(np.diag(coeffs).astype(complex)))


BELL_SD = _schmidt_of([1 / math.sqrt(2)] * 2)
SKEW_SD = _schmidt_of([0.8, 0.6])


class TestSchmidtBounds:
    def test_bell_state_two_settings(self):
        assert schmidt_settings_bound(BELL_SD, 2, 2) == pytest.approx(3.0, abs=1e-12)

    def test_skewed_state(self):
        assert schmidt_settings_bound(SKEW_SD, 5, 5) == pytest.approx(2.92, abs=1e-12)
        assert schmidt_sum_bound(SKEW_SD) == pytest.approx(2.92, abs=1e-12)

    def test_settings_can_dominate(self):
        # one setting on either site caps the ratio at 1 regardless of the state
        assert schmidt_settings_bound(BELL_SD, 1, 7) == pytest.approx(1.0, abs=1e-12)
        assert schmidt_settings_bound(BELL_SD, 7, 1) == pytest.approx(1.0, abs=1e-12)

    def test_settings_independent_version_dominates(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            sd = schmidt_decompose(random_pure_state(rng, 3, 4))
            s1, s2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            with_settings = schmidt_settings_bound(sd, s1, s2)
            assert 1.0 - 1e-12 <= with_settings <= schmidt_sum_bound(sd) + 1e-12

    def test_monotone_in_settings(self):
        values = [schmidt_settings_bound(SKEW_SD, s, s) for s in range(1, 6)]
        assert values == sorted(values)

    def test_bad_settings(self):
        with pytest.raises(ValueError):
            schmidt_settings_bound(BELL_SD, 0, 2)


class TestDimensionSettingsBound:
    def test_qubits(self):
        assert dimension_settings_bound(2, 2, 5, 5) == pytest.approx(3.0, abs=1e-12)

    def test_infinite_dimensions_fall_back_to_settings(self):
        assert dimension_settings_bound(INFINITE, INFINITE, 2, 7) == pytest.approx(3.0)

    def test_mixed(self):
        assert dimension_settings_bound(3, 4, 3, 3) == pytest.approx(5.0, abs=1e-12)

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dimension_settings_bound(INFINITE, INFINITE, INFINITE, INFINITE)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            dimension_settings_bound(2.5, 2, 2, 2)

    def test_huge_counts_are_exact(self):
        assert dimension_settings_bound(INFINITE, INFINITE, 2**1100, 2**1100) == INFINITE
        assert dimension_settings_bound(INFINITE, INFINITE, 2**1023, 2**1100) == INFINITE
        assert dimension_settings_bound(INFINITE, 3, 10**400, 10**400) == 5.0
        assert schmidt_settings_bound(BELL_SD, 10**400, 2) == pytest.approx(3.0)


class TestProjectiveBound:
    def test_two_settings(self):
        assert projective_bound(2, 2) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert projective_bound(9, 2) == pytest.approx(3.0, abs=1e-12)
        # saturates at 3 for any larger dimension
        assert projective_bound(100, 2) == pytest.approx(3.0, abs=1e-12)

    def test_three_settings(self):
        assert projective_bound(2, 3) == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_linear_term_wins_for_many_settings(self):
        assert projective_bound(4, 1000) == pytest.approx(7.0, abs=1e-12)

    def test_huge_exponent_does_not_overflow(self):
        assert projective_bound(2, 2100) == pytest.approx(3.0, abs=1e-12)

    def test_huge_counts_are_exact(self):
        assert projective_bound(2, 10**400) == 3.0
        assert projective_bound(10**400, 2) == 3.0
        assert projective_bound(10**400, 10**400) == INFINITE

    def test_single_setting_rejected(self):
        with pytest.raises(ValueError, match="s = 1"):
            projective_bound(2, 1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            projective_bound(1, 2)


class TestQuantumBand:
    def test_chsh_band(self):
        assert quantum_band(2.0, -2.0, 3.0) == pytest.approx((-6.0, 6.0), abs=1e-12)

    def test_asymmetric(self):
        assert quantum_band(1.0, 0.0, 2.0) == pytest.approx((-0.5, 1.5), abs=1e-12)

    def test_trivial_ratio_keeps_classical_interval(self):
        assert quantum_band(4.0, -1.0, 1.0) == (-1.0, 4.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quantum_band(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            quantum_band(1.0, -1.0, 0.5)


class TestBoundReport:
    def test_composition(self):
        rep = bound_report(BELL_SD, 2, 2, 2, 2)
        assert rep.schmidt_settings == pytest.approx(3.0)
        assert rep.schmidt_sum == pytest.approx(3.0)
        assert rep.dimension_settings == pytest.approx(3.0)
        assert rep.projective is None
        assert rep.applicable_min == pytest.approx(3.0)

    def test_projective_included_when_asserted(self):
        rep = bound_report(BELL_SD, 2, 2, 2, 2, assert_projective=True)
        assert rep.projective == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rep.applicable_min == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_infinite_dimension_report(self):
        rep = bound_report(BELL_SD, INFINITE, INFINITE, 2, 2)
        assert rep.dimension_settings == pytest.approx(3.0)
        assert rep.d1 == INFINITE

    def test_projective_gating(self):
        with pytest.raises(ValueError, match="equal finite dimensions"):
            bound_report(BELL_SD, 2, 3, 2, 2, assert_projective=True)
        with pytest.raises(ValueError, match="equal finite dimensions"):
            bound_report(BELL_SD, INFINITE, INFINITE, 2, 2, assert_projective=True)
        with pytest.raises(ValueError, match="equal setting counts"):
            bound_report(BELL_SD, 2, 2, 2, 3, assert_projective=True)

    def test_min_never_below_one(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            sd = schmidt_decompose(random_pure_state(rng, d1, d2))
            rep = bound_report(sd, d1, d2, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            assert rep.applicable_min >= 1.0 - 1e-12
            assert rep.applicable_min == min(
                rep.schmidt_settings, rep.schmidt_sum, rep.dimension_settings
            )


def test_sum_squared_consistency():
    # the two Schmidt-based bounds share the same functional of the coefficients
    assert schmidt_sum_bound(SKEW_SD) == pytest.approx(
        2 * schmidt_sum_squared(SKEW_SD) - 1, abs=0
    )
