"""Coherent-state superposition families and their closed forms."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellbound import (
    CapacityError,
    CoherentFamily,
    FockTruncation,
    bell_limit_fidelity,
    bound_curve,
    coherent_fock_vector,
    coherent_violation_bound,
    fock_state,
    fock_truncation,
    parity_basis,
    reduced_eigenvalues,
    schmidt_decompose,
    schmidt_sum_bound,
    two_mode_amplitudes,
)
from bellbound import coherent
from bellbound.coherent import MAX_AUTO_CUTOFF
from helpers import reference_coherent_fock_vector, reference_fock_state


def _fidelity_limit(alpha):
    """Closed-form single-photon fidelity 4 a^2 e^(-2 a^2) / (1 - e^(-4 a^2))."""
    return (2 * alpha * math.exp(-(alpha**2))) ** 2 / (1 - math.exp(-4 * alpha**2))


def _poisson_truncation_oracle(alpha, tail_tol):
    """Smallest cutoff >= 16 with Poisson(alpha^2) mass above it below ``tail_tol``.

    Log-pmf from a cumulative sum of logs, tails by a reversed log-sum-exp.
    """
    lam = alpha**2
    m = np.arange(int(lam + 60 * math.sqrt(lam) + 200))
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(m[1:]))])
    log_p = m * math.log(lam) - lam - log_fact
    tails = np.exp(np.logaddexp.accumulate(log_p[::-1])[::-1][1:])  # P(X > n)
    n = 16 + int(np.argmax(tails[16:] < tail_tol))
    return n, float(tails[n])


class TestFockTruncation:
    def test_auto_cutoffs(self):
        assert fock_truncation(0.5).cutoff == 16
        assert fock_truncation(1.0).cutoff == 16
        assert fock_truncation(2.0).cutoff == 27
        assert fock_truncation(2.0).tail_bound < 1e-14

    def test_explicit_cutoff_checked(self):
        trunc = fock_truncation(2.0, cutoff=40, tail_tol=1e-12)
        assert trunc.tail_bound < 1e-12
        with pytest.raises(CapacityError, match="tail mass"):
            fock_truncation(2.0, cutoff=5)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 26.0, 27.5, 28.2])
    def test_matches_log_space_oracle(self, alpha):
        # from alpha ~ 27.3 on, exp(-alpha^2) is below the smallest double
        cutoff, tail = _poisson_truncation_oracle(alpha, 1e-14)
        trunc = fock_truncation(alpha)
        assert trunc.cutoff == cutoff
        assert trunc.tail_bound == pytest.approx(tail, rel=1e-9)

    @pytest.mark.parametrize("alpha", [28.3, 30.0, 40.0, 1e6])
    def test_auto_cutoff_capacity(self, alpha):
        with pytest.raises(CapacityError, match="above 1024"):
            fock_truncation(alpha)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fock_truncation(-1.0)
        with pytest.raises(ValueError):
            fock_truncation(1.0, cutoff=3.5)
        with pytest.raises(ValueError):
            FockTruncation(1.0, cutoff=0)
        with pytest.raises(ValueError, match="tail_tol"):
            FockTruncation(1.0, cutoff=16, tail_tol=1.0)
        with pytest.raises(TypeError):
            FockTruncation(1.0, cutoff=16, tail_bound=0.0)  # the tail is computed, not passed

    def test_tail_is_computed(self):
        trunc = FockTruncation(2.0, cutoff=40, tail_tol=1e-12)
        assert (trunc.alpha, trunc.cutoff, trunc.tail_tol) == (2.0, 40, 1e-12)
        assert trunc.tail_bound == coherent._poisson_tail(2.0, 40)
        assert fock_truncation(2.0, cutoff=40, tail_tol=1e-12) == trunc

    @pytest.mark.parametrize("alpha, cutoff", [(2.0, 5), (40.0, MAX_AUTO_CUTOFF)])
    def test_too_small_cutoff_refused(self, alpha, cutoff):
        # the renormalization and underflow checks of the vector builder are gone:
        # these cutoffs leave tail mass 0.21 and 1.0, and no truncation is made
        with pytest.raises(CapacityError, match=f"cutoff {cutoff} leaves tail mass"):
            FockTruncation(alpha, cutoff)


class TestAnyPositiveAlpha:
    """alpha from the smallest subnormal to the largest double, where alpha^2 may
    underflow to 0 or overflow to infinity."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp),
           family=st.integers(1, 4))
    @example(alpha=5e-324, family=1)
    @example(alpha=1e-300, family=2)
    @example(alpha=1e155, family=3)
    @example(alpha=sys.float_info.max, family=4)
    def test_bound_and_truncation(self, alpha, family):
        bound = coherent_violation_bound(CoherentFamily(family, alpha))
        assert math.isfinite(bound) and 1.0 <= bound <= 3.0
        for cutoff in ("auto", 16):
            try:
                trunc = fock_truncation(alpha, cutoff=cutoff)
            except CapacityError:
                assert alpha > 1.0  # Poisson(alpha^2) mass is left above the cutoff
                continue
            assert trunc.tail_bound <= trunc.tail_tol  # NaN fails this

    def test_poisson_tail_at_the_float_limits(self):
        assert coherent._poisson_tail(1e-300, 16) == 0.0
        assert coherent._poisson_tail(1e155, MAX_AUTO_CUTOFF) == 1.0

    def test_cutoff_far_below_the_mean_sums_no_term(self, monkeypatch):
        # alpha^2 = 1e12: a cutoff of 3M is above the cap, refused before its tail is summed
        calls = []

        def counting(x, _real=math.lgamma):
            calls.append(x)
            return _real(x)

        monkeypatch.setattr(math, "lgamma", counting)
        with pytest.raises(CapacityError, match=f"largest supported cutoff {MAX_AUTO_CUTOFF}"):
            fock_truncation(1e6, cutoff=3_000_000)
        assert calls == []

    @pytest.mark.parametrize("alpha", [50.0, 300.0])
    def test_far_below_the_mean_the_tail_is_one(self, alpha):
        # 40 standard deviations below the mean every head term underflows: the tail is 1.0
        lam = alpha * alpha
        edge = math.ceil(lam - 40.0 * alpha)
        for cutoff in (edge - 1, edge):
            head = math.fsum(math.exp(m * math.log(lam) - lam - math.lgamma(m + 1))
                             for m in range(cutoff + 1))
            assert coherent._poisson_tail(alpha, cutoff) == max(0.0, 1.0 - head) == 1.0


class TestSmallAlpha:
    """alpha from 1e-12 to 1e-3, where x = exp(-2 alpha^2) rounds towards 1."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(math.log(1e-12), math.log(1e-3)).map(math.exp),
           family=st.integers(1, 4))
    @example(alpha=1e-9, family=3)
    @example(alpha=1e-9, family=4)
    @example(alpha=1e-7, family=3)
    def test_every_alpha_gives_a_finite_state(self, alpha, family):
        # a RuntimeWarning is an error under the suite's filterwarnings
        fam = CoherentFamily(family, alpha)
        m = two_mode_amplitudes(fam)
        assert np.all(np.isfinite(m))
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-14)
        state = fock_state(fam, fock_truncation(alpha))
        assert np.all(np.isfinite(state.amplitudes))

    @pytest.mark.parametrize("alpha", [1e-9, 1e-300, 5e-324])
    @pytest.mark.parametrize("family", [3, 4])
    def test_minus_families_tend_to_single_photon_bell_states(self, alpha, family):
        # 1 - x^2 rounds to 0, yet e- is the odd part of |alpha> on its own: |1>
        trunc = fock_truncation(alpha)
        amp = fock_state(CoherentFamily(family, alpha), trunc).amplitudes
        bell = np.zeros_like(amp)
        bell[0, 1], bell[1, 0] = (1.0 if family == 3 else -1.0), 1.0
        assert np.max(np.abs(amp - bell / math.sqrt(2.0))) < 1e-15
        assert bell_limit_fidelity(family, trunc) == pytest.approx(1.0, abs=1e-15)


class TestCoherentVectors:
    def test_overlap_matches_gaussian_formula(self):
        trunc = fock_truncation(1.0)
        plus = coherent_fock_vector(1, trunc)
        minus = coherent_fock_vector(-1, trunc)
        assert abs(np.vdot(plus, minus) - math.exp(-2.0)) < 1e-12

    def test_unit_norm(self):
        for alpha in (0.1, 0.7, 2.0):
            vec = coherent_fock_vector(1, fock_truncation(alpha))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)

    def test_small_alpha_approaches_vacuum(self):
        vec = coherent_fock_vector(1, fock_truncation(1e-3))
        assert vec[0].real > 0.9999994

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            coherent_fock_vector(0, fock_truncation(1.0))

    @pytest.mark.parametrize("tail_tol", [1e-14, 1e-6])
    def test_matches_the_per_entry_loop(self, tail_tol):
        for alpha in np.concatenate([np.geomspace(6e-8, 28.25, 120), [25.249637203638695]]):
            trunc = fock_truncation(float(alpha), tail_tol=tail_tol)
            for sign in (1, -1):
                got = coherent_fock_vector(sign, trunc)
                assert np.array_equal(got, reference_coherent_fock_vector(sign, trunc)), alpha


class TestParityBasis:
    @pytest.mark.parametrize("alpha", [5e-324, 1e-9, 0.8, 25.0])
    def test_orthonormal_at_every_alpha(self, alpha):
        even, odd = parity_basis(fock_truncation(alpha))
        assert abs(np.vdot(even, even) - 1) < 1e-14
        assert abs(np.vdot(odd, odd) - 1) < 1e-14
        assert np.vdot(even, odd) == 0.0  # disjoint supports
        assert np.all(even[1::2] == 0) and np.all(odd[0::2] == 0)

    def test_odd_vector_overlap(self):
        # <e-|-alpha> = -sqrt((1 - x)/2)
        alpha = 0.5
        trunc = fock_truncation(alpha)
        _, odd = parity_basis(trunc)
        minus = coherent_fock_vector(-1, trunc)
        assert abs(np.vdot(odd, minus) + math.sqrt(-math.expm1(-0.5) / 2)) < 1e-12

    def test_reconstruction(self):
        # |-alpha> = sqrt((1 + x)/2) e+ - sqrt((1 - x)/2) e-
        alpha = 1.0
        trunc = fock_truncation(alpha)
        even, odd = parity_basis(trunc)
        minus = coherent_fock_vector(-1, trunc)
        x = math.exp(-2.0)
        rebuilt = math.sqrt((1 + x) / 2) * even - math.sqrt((1 - x) / 2) * odd
        assert np.max(np.abs(rebuilt - minus)) < 1e-12

    def test_tiny_alpha_is_vacuum_and_one_photon(self):
        even, odd = parity_basis(fock_truncation(5e-324))
        assert even[0] == 1.0 and odd[1] == 1.0
        assert np.count_nonzero(even) == np.count_nonzero(odd) == 1


class TestTwoModeAmplitudes:
    def test_family4_is_singlet(self):
        for alpha in (0.2, 1.0, 2.5):
            m = two_mode_amplitudes(CoherentFamily(4, alpha))
            assert_allclose(m, np.array([[0, -1], [1, 0]]) / math.sqrt(2), atol=1e-15)

    def test_family2_large_alpha_limit(self):
        m = two_mode_amplitudes(CoherentFamily(2, 3.0))
        assert_allclose(m, np.diag([1, -1]) / math.sqrt(2), atol=1e-7)

    def test_unit_frobenius_norm(self):
        for family in (1, 2, 3, 4):
            for alpha in (0.3, 1.1, 2.2):
                m = two_mode_amplitudes(CoherentFamily(family, alpha))
                assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_matches_fock_space_projection(self):
        # projecting the truncated Fock state onto the parity pair must
        # reproduce the closed-form 2x2 amplitudes, signs included
        for family in (1, 2, 3, 4):
            for alpha in (0.4, 1.0):
                fam = CoherentFamily(family, alpha)
                trunc = fock_truncation(alpha)
                u = parity_basis(trunc)
                big = fock_state(fam, trunc).amplitudes
                projected = u.conj() @ big @ u.conj().T
                assert_allclose(projected, two_mode_amplitudes(fam), atol=1e-9)

    def test_singular_values_match_eigenvalues(self):
        for family in (1, 2, 3, 4):
            for alpha in (0.1, 0.5, 1.0, 2.0):
                fam = CoherentFamily(family, alpha)
                sv = np.linalg.svd(two_mode_amplitudes(fam), compute_uv=False)
                assert_allclose(np.sort(sv**2)[::-1], reduced_eigenvalues(fam), atol=1e-12)


class TestReducedEigenvalues:
    def test_known_values(self):
        lam = reduced_eigenvalues(CoherentFamily(1, 0.5))
        assert lam[0] == pytest.approx(0.943410, abs=1e-6)
        assert lam[1] == pytest.approx(0.056590, abs=1e-6)
        assert reduced_eigenvalues(CoherentFamily(3, 0.5)) == (0.5, 0.5)

    def test_sum_to_one(self):
        for family in (1, 2, 3, 4):
            for alpha in (0.05, 0.5, 1.5, 3.0):
                lam = reduced_eigenvalues(CoherentFamily(family, alpha))
                assert lam[0] + lam[1] == pytest.approx(1.0, abs=1e-14)

    def test_squared_schmidt_coefficients_at_every_scale(self):
        # 1 - x as -expm1(-2 alpha^2): 1 - exp(-2e-10) would lose 7 digits of the smaller one
        for family in (1, 2):
            for alpha in np.geomspace(1e-9, 5.0, 81):
                fam = CoherentFamily(family, float(alpha))
                squares = np.abs(np.diagonal(two_mode_amplitudes(fam))) ** 2
                assert_allclose(reduced_eigenvalues(fam), squares, rtol=1e-15, atol=0.0)
        assert reduced_eigenvalues(CoherentFamily(1, 1e-5))[1] == pytest.approx(1e-20, rel=1e-9,
                                                                                  abs=0.0)

    def test_large_alpha_balances(self):
        lam = reduced_eigenvalues(CoherentFamily(2, 3.0))
        assert_allclose(lam, (0.5, 0.5), atol=1e-7)

    def test_against_truncated_svd(self):
        for family in (1, 2, 3, 4):
            for alpha in (0.1, 0.5, 1.0, 2.0):
                fam = CoherentFamily(family, alpha)
                st = fock_state(fam, fock_truncation(alpha))
                sd = schmidt_decompose(st)
                assert sd.rank == 2
                assert_allclose(sd.coefficients**2, reduced_eigenvalues(fam), atol=1e-9)


class TestViolationBound:
    def test_small_alpha_tends_to_one(self):
        assert coherent_violation_bound(CoherentFamily(1, 1e-4)) == pytest.approx(1.0, abs=1e-6)

    def test_minus_families_always_three(self):
        for alpha in (0.01, 0.5, 2.0):
            assert coherent_violation_bound(CoherentFamily(3, alpha)) == 3.0
            assert coherent_violation_bound(CoherentFamily(4, alpha)) == 3.0

    def test_range(self):
        for family in (1, 2):
            for alpha in np.linspace(0.05, 3.0, 40):
                b = coherent_violation_bound(CoherentFamily(family, float(alpha)))
                assert 1.0 - 1e-12 <= b <= 3.0 + 1e-12

    def test_agrees_with_eigenvalue_form(self):
        # (3 - x^2)/(1 + x^2) is 1 + 4 sqrt(lam+ lam-) in disguise
        for family in (1, 2, 3, 4):
            for alpha in np.linspace(0.1, 3.0, 30):
                fam = CoherentFamily(family, float(alpha))
                lp, lm = reduced_eigenvalues(fam)
                assert coherent_violation_bound(fam) == pytest.approx(
                    1.0 + 4.0 * math.sqrt(lp * lm), abs=1e-12
                )

    def test_agrees_with_general_schmidt_bound(self):
        # the same number must come out of the generic Schmidt machinery
        # applied to the truncated Fock representation
        for family in (1, 3):
            for alpha in np.linspace(0.1, 3.0, 15):
                fam = CoherentFamily(family, float(alpha))
                st = fock_state(fam, fock_truncation(fam.alpha))
                generic = schmidt_sum_bound(schmidt_decompose(st))
                assert coherent_violation_bound(fam) == pytest.approx(generic, abs=1e-8)


class TestFockState:
    def test_normalized(self):
        for family in (1, 2, 3, 4):
            st = fock_state(CoherentFamily(family, 0.9), fock_truncation(0.9))
            assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry(self):
        trunc = fock_truncation(0.7)
        sym = fock_state(CoherentFamily(1, 0.7), trunc).amplitudes
        anti = fock_state(CoherentFamily(4, 0.7), trunc).amplitudes
        assert np.max(np.abs(sym - sym.T)) < 1e-14
        assert np.max(np.abs(anti + anti.T)) < 1e-14

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_matches_the_coherent_vector_construction(self, family):
        # E^T C E against the outer products of |alpha> and |-alpha>, signs included
        for alpha in np.geomspace(1e-3, 5.0, 60):
            fam = CoherentFamily(family, float(alpha))
            trunc = fock_truncation(fam.alpha)
            got = fock_state(fam, trunc).amplitudes
            assert np.max(np.abs(got - reference_fock_state(fam, trunc))) <= 1e-14, alpha

    def test_explicit_cutoff_above_cap_refused(self):
        # no truncation above the cap exists, however it is made
        with pytest.raises(CapacityError, match=f"largest supported cutoff {MAX_AUTO_CUTOFF}"):
            fock_truncation(1.0, cutoff=MAX_AUTO_CUTOFF + 1)
        with pytest.raises(CapacityError, match=f"largest supported cutoff {MAX_AUTO_CUTOFF}"):
            FockTruncation(1.0, cutoff=MAX_AUTO_CUTOFF + 1)
        # the cap itself is still accepted
        st = fock_state(CoherentFamily(1, 1.0), fock_truncation(1.0, cutoff=MAX_AUTO_CUTOFF))
        assert st.d1 == MAX_AUTO_CUTOFF + 1

    def test_truncation_for_another_alpha_refused(self):
        with pytest.raises(ValueError, match="truncation for alpha=1.0 given for alpha=2.0"):
            fock_state(CoherentFamily(1, 2.0), fock_truncation(1.0))

    def test_loose_tolerance_cutoff_gives_a_state(self):
        # cutoff 17 leaves tail mass 5.3e-3; the truncation alone judges it
        trunc = fock_truncation(3.0, tail_tol=1e-2)
        assert trunc.cutoff == 17
        st = fock_state(CoherentFamily(1, 3.0), trunc)
        assert st.d1 == 18
        assert_allclose(schmidt_decompose(st).coefficients ** 2,
                        reduced_eigenvalues(CoherentFamily(1, 3.0)), atol=1e-15)

    def test_tail_below_the_rounding_of_the_norm(self):
        # cutoff 17 leaves tail mass 6.1e-17, below the 2.2e-16 rounding of 1/||v|| - 1
        st = fock_state(CoherentFamily(1, 1.0), fock_truncation(1.0, tail_tol=1e-16))
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_large_alpha_deck_yields_states(self):
        # 400 alpha uniform in [8, 28.25]: each cutoff leaves tail mass below 1e-14,
        # however far the running product's rounding moves 1/||v|| from 1; each
        # state matches the coherent-vector construction
        for alpha in np.random.default_rng(281).uniform(8.0, 28.25, 400):
            trunc = fock_truncation(float(alpha))
            for family in (1, 2, 3, 4):
                fam = CoherentFamily(family, trunc.alpha)
                st = fock_state(fam, trunc)
                assert st.d1 == trunc.cutoff + 1
                assert np.max(np.abs(st.amplitudes - reference_fock_state(fam, trunc))) <= 1e-14


class TestBellLimitFidelity:
    def test_matches_closed_form(self):
        for family in (3, 4):
            for alpha in (0.5, 0.3, 0.1):
                got = bell_limit_fidelity(family, fock_truncation(alpha))
                assert got == pytest.approx(_fidelity_limit(alpha), abs=1e-9)

    def test_small_alpha_near_unity(self):
        trunc = fock_truncation(0.1)
        assert bell_limit_fidelity(3, trunc) > 0.999
        assert bell_limit_fidelity(3, trunc) == pytest.approx(0.999933, abs=1e-6)

    def test_monotone_as_alpha_shrinks(self):
        vals = [bell_limit_fidelity(3, fock_truncation(a)) for a in (0.5, 0.3, 0.1)]
        assert vals[0] < vals[1] < vals[2]

    def test_large_alpha_departs(self):
        assert bell_limit_fidelity(3, fock_truncation(2.0)) < 0.9

    def test_plus_family_rejected(self):
        with pytest.raises(ValueError, match="families 3 and 4"):
            bell_limit_fidelity(1, fock_truncation(0.5))


class TestBoundCurve:
    def test_family1_sweep(self):
        curve = bound_curve(1, 0.01, 3.0, 300)
        assert len(curve) == 300
        alphas = [a for a, _ in curve]
        values = [b for _, b in curve]
        assert alphas == sorted(alphas)
        assert alphas[0] == pytest.approx(0.01) and alphas[-1] == pytest.approx(3.0)
        assert values == sorted(values)
        assert abs(values[0] - 1.0) < 1e-3
        assert abs(values[-1] - 3.0) < 1e-6

    def test_family3_constant(self):
        curve = bound_curve(3, 0.01, 3.0, 50)
        assert all(b == 3.0 for _, b in curve)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            bound_curve(1, 0.01, 3.0, 1)
        with pytest.raises(ValueError):
            bound_curve(1, 2.0, 1.0, 10)

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha_min, alpha_max",
                             [(0.01, 3.0), (1e-9, 1e-3), (0.05, 40.0), (0.1, 1e300)])
    def test_one_family_and_the_pointwise_values(self, monkeypatch, family, alpha_min, alpha_max):
        made = []

        class Counting(CoherentFamily):
            def __post_init__(self):
                made.append(self.alpha)
                super().__post_init__()

        monkeypatch.setattr(coherent, "CoherentFamily", Counting)
        curve = bound_curve(family, alpha_min, alpha_max, 1000)
        assert made == [alpha_min]
        for alpha, bound in curve:
            pointwise = coherent_violation_bound(CoherentFamily(family, alpha))
            assert bound == pytest.approx(pointwise, rel=1e-15)

    @pytest.mark.parametrize("alpha_max", [math.inf, math.nan, -1.0])
    def test_alpha_max_is_a_positive_real(self, alpha_max):
        with pytest.raises(ValueError, match="alpha_max must be a positive finite real"):
            bound_curve(1, 0.01, alpha_max, 10)


class TestFamilyValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            CoherentFamily(5, 1.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            CoherentFamily(1, 0.0)
        with pytest.raises(ValueError):
            CoherentFamily(1, math.inf)
