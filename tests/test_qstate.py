"""Schmidt analysis, reduced states, and Bell-type superpositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

import bellbound
from bellbound import (
    Assemblage,
    CoherentFamily,
    DegeneracyError,
    DensityOperator,
    PureState,
    SourceOperator,
    ValidationError,
    bell_like_state,
    fock_state,
    fock_truncation,
    reconstruct,
    reduced_state,
    schmidt_decompose,
    schmidt_sum_squared,
    trace_norm,
)
from bellbound.qstate import PSD_ATOL, count, positive_real
from helpers import (count_lapack, random_pure_state, random_unit_vector,
                     reference_schmidt_bases)

BELL = PureState(np.array([[1, 0], [0, 1]]) / math.sqrt(2))
PRODUCT = PureState(np.array([[1, 0], [0, 0]], dtype=complex))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="deviates from 1 by"):
            PureState(np.array([[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [1e200, 1.5e154], ids=["square", "sum"])
    def test_overflowing_norm_is_a_validation_error(self, entry):
        # with warnings as errors, numpy's overflow warning would replace the error
        with pytest.raises(ValidationError, match="deviates from 1 by inf"):
            PureState(np.full((2, 2), entry))

    def test_overflowing_norm_under_raising_errstate(self):
        # a caller's np.seterr(all="raise") does not turn the error into a FloatingPointError
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="by inf"):
            PureState(np.full((2, 2), 1e200))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 0.0]))

    def test_dims_and_vector(self):
        st = random_pure_state(np.random.default_rng(0), 3, 4)
        assert (st.d1, st.d2) == (3, 4)
        # row-major flattening matches the kron convention
        assert st.vector()[2 * 4 + 1] == st.amplitudes[2, 1]

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            BELL.amplitudes[0, 0] = 0.0


def _povm_element(m):
    half = np.eye(2) / 2
    return Assemblage(site1=((m, np.eye(2) - m),), site2=((half, half),))


# each caller of the shared Hermitian check, with its tolerance written out so
# the test pins the table's values, and the size of a valid unit-trace input
HERMITIAN_CALLERS = [
    pytest.param(DensityOperator, 1e-12, 2, id="density"),
    pytest.param(_povm_element, 1e-10, 2, id="povm"),
    pytest.param(lambda m: SourceOperator(s1=1, s2=1, d1=2, d2=2, matrix=m), 1e-10, 4,
                 id="source"),
    pytest.param(trace_norm, 1e-8, 2, id="trace_norm"),
]


class TestHermitianCheck:
    @pytest.mark.parametrize("caller, tol, n", HERMITIAN_CALLERS)
    @pytest.mark.parametrize("entry", [(0, 1), (1, 0), (0, 0)],
                             ids=["upper", "lower", "diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite(self, caller, tol, n, entry, bad):
        # a diagonal inf meets itself in m - m^H: inf - inf must not warn
        m = np.eye(n, dtype=complex) / n
        m[entry] = bad
        with pytest.raises(ValidationError, match="NaN or infinite"):
            caller(m)

    @pytest.mark.parametrize("caller, tol, n", HERMITIAN_CALLERS)
    def test_asymmetry_tolerance(self, caller, tol, n):
        m = np.eye(n, dtype=complex) / n
        m[0, 1] = 0.5 * tol
        caller(m)
        m[0, 1] = 2.0 * tol
        with pytest.raises(ValidationError, match="is not Hermitian"):
            caller(m)

    @pytest.mark.parametrize("caller, what", [(DensityOperator, "density matrix"),
                                              (trace_norm, "trace norm input")])
    def test_overflowing_asymmetry_is_not_hermitian(self, caller, what):
        # every entry is finite; only m - m^H overflows, and without a warning
        with pytest.raises(ValidationError) as err:
            caller(np.array([[1e308, -1e308], [1e308, 0.0]]))
        assert str(err.value) == f"{what} is not Hermitian (max asymmetry inf)"

    def test_stores_input_unsymmetrized_and_frozen(self):
        m = np.array([[0.5, 1e-13], [0.0, 0.5]])
        stored = [DensityOperator(m).matrix, _povm_element(m).site1[0][0]]
        for out in stored:
            assert np.array_equal(out, m) and not out.flags.writeable


class TestDensityOperator:
    @pytest.mark.parametrize("matrix, match", [
        ([[0.5, 0.1], [0.0, 0.5]], "density matrix is not Hermitian"),
        ([[1.0, 0.0], [0.0, 1.0]], "density matrix trace deviates from 1"),
        ([[1.5, 0.0], [0.0, -0.5]], "density matrix is not positive semidefinite"),
        ([[1.0, 0.0]], "density matrix must be square"),
        (np.full((2, 2, 2), 0.25), r"density matrix must be square, got shape \(2, 2, 2\)"),
        ([[math.inf, 0.0], [0.0, 0.0]], "^density matrix has a NaN or infinite entry$"),
    ], ids=["non-hermitian", "trace", "non-psd", "non-square", "three-axes", "inf"])
    def test_rejects(self, matrix, match):
        with pytest.raises(ValidationError, match=match):
            DensityOperator(np.array(matrix))

    @pytest.mark.parametrize("factor", [-1.1, -0.9, -0.5, 0.5, 0.9, 1.1])
    def test_psd_tolerance_edge(self, factor):
        # lambda_min = factor * PSD_ATOL is refused only below -PSD_ATOL,
        # whether the Cholesky certificate or eigvalsh decides
        rng = np.random.default_rng(89)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        lam = factor * PSD_ATOL
        m = (u * [lam, 0.2, 0.3, 0.5 - lam]) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        if factor < -1.0:
            with pytest.raises(ValidationError, match="density matrix is not positive semidef"):
                DensityOperator(m)
        else:
            DensityOperator(m)

    def test_valid_matrix_certified_by_one_cholesky(self, monkeypatch):
        rho = reduced_state(random_pure_state(np.random.default_rng(5), 4, 4), 1).matrix
        calls = count_lapack(monkeypatch)
        DensityOperator(rho)
        assert calls == {"cholesky": 1, "eigvalsh": 0}

    def test_reduced_state_stores_symmetrized_product(self):
        st = random_pure_state(np.random.default_rng(6), 3, 5)
        a = st.amplitudes
        for site, m in ((1, a @ a.conj().T), (2, a.T @ a.conj())):
            assert np.array_equal(reduced_state(st, site).matrix, (m + m.conj().T) / 2.0)


class TestSchmidtDecompose:
    def test_bell_state(self):
        sd = schmidt_decompose(BELL)
        assert sd.rank == 2
        assert_allclose(sd.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_product_state(self):
        sd = schmidt_decompose(PRODUCT)
        assert sd.rank == 1
        assert_allclose(sd.coefficients, [1.0], atol=1e-15)

    def test_coherent_family_closed_form(self):
        # SVD of the truncated two-mode state must match the closed-form
        # eigenvalues lambda_pm = (1 ± x)^2 / (2 (1 + x^2)), x = e^{-2 a^2}.
        alpha = 0.5
        x = math.exp(-2 * alpha**2)
        lam = np.array([(1 + x) ** 2, (1 - x) ** 2]) / (2 * (1 + x * x))
        st = fock_state(CoherentFamily(1, alpha), fock_truncation(alpha))
        sd = schmidt_decompose(st)
        assert sd.rank == 2
        assert_allclose(sd.coefficients**2, lam, atol=1e-9)

    def test_descending_order_and_truncation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            st = random_pure_state(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            sd = schmidt_decompose(st)
            assert np.all(np.diff(sd.coefficients) <= 0)
            assert np.all(sd.coefficients > sd.truncation_tol)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            st = random_pure_state(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            sd = schmidt_decompose(st)
            assert np.max(np.abs(reconstruct(sd) - st.amplitudes)) < 1e-10

    def test_orthonormal_bases(self):
        rng = np.random.default_rng(13)
        st = random_pure_state(rng, 4, 3)
        sd = schmidt_decompose(st)
        for basis in (sd.left_basis, sd.right_basis):
            gram = basis @ basis.conj().T
            assert_allclose(gram, np.eye(sd.rank), atol=1e-12)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(17)
        st = random_pure_state(rng, 3, 3)
        a = schmidt_decompose(st)
        b = schmidt_decompose(PureState(st.amplitudes.copy()))
        assert_allclose(a.left_basis, b.left_basis, atol=0)
        for row in a.left_basis:
            pivot = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
            assert abs(pivot.imag) < 1e-14
            assert pivot.real > 0

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_bases_match_phase_loop_bitwise(self, data):
        # rank-deficient states, and states whose first site-1 levels carry
        # amplitudes at or below 1e-12, so that pivots sit past the leading
        # entries of the left vectors
        sizes = hst.sampled_from([1, 2, 3, 5, 8, 13, 32, 96])
        d1, d2 = data.draw(sizes, label="d1"), data.draw(sizes, label="d2")
        rank = data.draw(hst.integers(1, min(d1, d2)), label="rank")
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        amp = ((rng.standard_normal((d1, rank)) + 1j * rng.standard_normal((d1, rank)))
               @ (rng.standard_normal((rank, d2)) + 1j * rng.standard_normal((rank, d2))))
        faint = data.draw(hst.integers(0, d1 - 1), label="faint levels")
        amp[:faint] *= data.draw(hst.sampled_from([0.0, 1e-16, 1e-13, 1e-12]), label="faint")
        st = PureState(amp / np.linalg.norm(amp))
        sd = schmidt_decompose(st)
        want = reference_schmidt_bases(st.amplitudes)
        for got, ref in zip((sd.coefficients, sd.left_basis, sd.right_basis), want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_truncation_drops_tiny_coefficients(self):
        eps = 1e-14
        big = math.sqrt(1 - eps**2)
        st = PureState(np.diag([big, eps]).astype(complex))
        sd = schmidt_decompose(st)
        assert sd.rank == 1
        # no renormalization of the kept coefficients
        assert sd.coefficients[0] == pytest.approx(big, abs=1e-15)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            schmidt_decompose(BELL, truncation_tol=1.5)


class TestReducedState:
    def test_bell_maximally_mixed(self):
        rho = reduced_state(BELL, 1)
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_projector(self):
        rho = reduced_state(PRODUCT, 2)
        assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_coherent_family4_balanced(self):
        st = fock_state(CoherentFamily(4, 1.0), fock_truncation(1.0))
        w = np.linalg.eigvalsh(reduced_state(st, 1).matrix)
        assert_allclose(np.sort(w)[-2:], [0.5, 0.5], atol=1e-10)

    def test_spectra_agree_across_sites(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            st = random_pure_state(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            w1 = np.linalg.eigvalsh(reduced_state(st, 1).matrix)
            w2 = np.linalg.eigvalsh(reduced_state(st, 2).matrix)
            nz1 = np.sort(w1[w1 > 1e-10])[::-1]
            nz2 = np.sort(w2[w2 > 1e-10])[::-1]
            assert len(nz1) == len(nz2)
            assert_allclose(nz1, nz2, atol=1e-10)

    def test_bad_site(self):
        with pytest.raises(ValueError, match="site"):
            reduced_state(BELL, 3)


class TestSchmidtSumSquared:
    def test_known_value(self):
        st = PureState(np.diag([0.8, 0.6]).astype(complex))
        assert schmidt_sum_squared(schmidt_decompose(st)) == pytest.approx(1.96, abs=1e-12)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            st = random_pure_state(rng, 3, 3)
            sd = schmidt_decompose(st)
            val = schmidt_sum_squared(sd)
            assert 1.0 - 1e-12 <= val <= sd.rank + 1e-12
        # equality with the rank iff maximally entangled
        maxent = PureState(np.eye(3, dtype=complex) / math.sqrt(3))
        assert schmidt_sum_squared(schmidt_decompose(maxent)) == pytest.approx(3, abs=1e-12)


class TestBellLikeState:
    def test_orthogonal_inputs_give_bell(self):
        v1 = np.array([1, 0], dtype=complex)
        v2 = np.array([0, 1], dtype=complex)
        st = bell_like_state(v1, v2, 0, 0)
        assert_allclose(st.amplitudes, BELL.amplitudes, atol=1e-15)

    def test_antisymmetric_overlapping(self):
        v1 = np.array([1, 0], dtype=complex)
        v2 = np.array([1, 1], dtype=complex) / math.sqrt(2)
        st = bell_like_state(v1, v2, 1, 1)
        sd = schmidt_decompose(st)
        assert_allclose(sd.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("k", [0, 1])
    def test_always_rank_two(self, j, k):
        rng = np.random.default_rng(100 * j + k)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            v1 = random_unit_vector(rng, d)
            v2 = random_unit_vector(rng, d)
            sd = schmidt_decompose(bell_like_state(v1, v2, j, k))
            assert sd.rank == 2

    def test_real_overlap_normalization_matches_closed_form(self):
        v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        v2 = np.array([0.6, 0.8, 0.0], dtype=complex)
        overlap = 0.6
        raw = np.outer(v1, v1) - np.outer(v2, v2)
        expected = raw / math.sqrt(2 * (1 - overlap**2))
        st = bell_like_state(v1, v2, 1, 0)
        assert_allclose(st.amplitudes, expected, atol=1e-12)

    def test_dependent_inputs_degenerate(self):
        v = np.array([1, 1], dtype=complex) / math.sqrt(2)
        with pytest.raises(DegeneracyError, match="Gram determinant"):
            bell_like_state(v, v * np.exp(0.3j), 0, 1)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            bell_like_state(np.array([1, 1], dtype=complex), np.array([0, 1], dtype=complex), 0, 0)

    def test_bad_indices(self):
        v1 = np.array([1, 0], dtype=complex)
        v2 = np.array([0, 1], dtype=complex)
        with pytest.raises(ValueError):
            bell_like_state(v1, v2, 2, 0)


#: Callers that take a count or a positive real, each given a value the
#: shared checks refuse: a bool, a float where a count is due, or a NaN.
_REFUSED = {
    "build_source_1xs.s2=True": lambda sd: bellbound.build_source_1xs(sd, True),
    "build_source_1xs.s2=2.0": lambda sd: bellbound.build_source_1xs(sd, 2.0),
    "build_source_sx1.s1=0": lambda sd: bellbound.build_source_sx1(sd, 0),
    "SourceOperator.d1=True": lambda sd: SourceOperator(
        s1=1, s2=1, d1=True, d2=4, matrix=np.eye(4) / 4),
    "seesaw_maximize.restarts=1.5": lambda sd: bellbound.seesaw_maximize(
        bellbound.chsh_functional(), BELL, restarts=1.5),
    "seesaw_maximize.max_iters=True": lambda sd: bellbound.seesaw_maximize(
        bellbound.chsh_functional(), BELL, max_iters=True),
    "schmidt_settings_bound.s1=True": lambda sd: bellbound.schmidt_settings_bound(sd, True, 2),
    "bound_report.s2=2.0": lambda sd: bellbound.bound_report(sd, 2, 2, 2, 2.0),
    "bound_report.d1=2.0": lambda sd: bellbound.bound_report(sd, 2.0, 2, 2, 2),
    "dimension_settings_bound.s1=3.0": lambda sd: bellbound.dimension_settings_bound(
        bellbound.INFINITE, 2, 3.0, 2),
    "projective_bound.d=2.0": lambda sd: bellbound.projective_bound(2.0, 2),
    "CoherentFamily.family=True": lambda sd: CoherentFamily(True, 0.5),
    "CoherentFamily.family=2.0": lambda sd: CoherentFamily(2.0, 0.5),
    "CoherentFamily.alpha=True": lambda sd: CoherentFamily(1, True),
    "FockTruncation.cutoff=True": lambda sd: bellbound.FockTruncation(0.5, cutoff=True),
    "fock_truncation.cutoff=20.0": lambda sd: fock_truncation(0.5, cutoff=20.0),
    "FockTruncation.alpha=nan": lambda sd: bellbound.FockTruncation(math.nan, cutoff=20),
    "bound_curve.steps=1": lambda sd: bellbound.bound_curve(1, 0.1, 1.0, 1),
    "bound_curve.steps=10.0": lambda sd: bellbound.bound_curve(1, 0.1, 1.0, 10.0),
}


class TestCountsAndPositiveReals:
    def test_count(self):
        assert count("s", np.int64(3)) == 3 and type(count("s", np.int64(3))) is int
        for bad in (True, False, 2.0, 1.5, "2", None, 0, -1):
            with pytest.raises(ValueError, match=f"s must be an integer >= 1, got {bad!r}"):
                count("s", bad)
        with pytest.raises(ValueError, match="steps must be an integer >= 2, got 1"):
            count("steps", 1, least=2)

    def test_positive_real(self):
        for good in (2, np.float64(0.5), 1e-300, np.int64(3)):
            got = positive_real("alpha", good)
            assert got == good and type(got) is float
        for bad in (True, 0, 0.0, -1.0, math.nan, math.inf, "1", None, 1j):
            with pytest.raises(ValueError, match="alpha must be a positive finite real"):
                positive_real("alpha", bad)

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_callers_refuse(self, name):
        with pytest.raises(ValueError, match="must be an integer >=|positive finite real"):
            _REFUSED[name](schmidt_decompose(BELL))

    def test_numpy_integers_are_counts(self):
        sd = schmidt_decompose(BELL)
        assert bellbound.schmidt_settings_bound(sd, np.int64(2), 2) == (
            bellbound.schmidt_settings_bound(sd, 2, 2))
        assert bellbound.projective_bound(np.int64(4), np.int64(2)) == 2.0
        op = bellbound.build_source_1xs(sd, np.int64(2))
        assert [type(v) for v in (op.s1, op.s2, op.d1, op.d2)] == [int] * 4
        assert type(bellbound.FockTruncation(0.5, cutoff=np.int64(20)).cutoff) is int
        assert CoherentFamily(np.int64(3), np.float64(0.5)) == CoherentFamily(3, 0.5)
