"""Classical extrema, quantum values, see-saw search, and certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from bellbound import (
    Assemblage,
    BellFunctional,
    CapacityError,
    DegeneracyError,
    LhvExtrema,
    OutcomeSet,
    PureState,
    UnsupportedFunctionalError,
    ValidationError,
    bell_value,
    certify,
    chsh_functional,
    lhv_extrema,
    quantum_probabilities,
    seesaw_maximize,
    strategy_value,
)
from helpers import (
    PAULI_X,
    PAULI_Z,
    brute_force_extrema,
    chsh_max_two_qubit,
    observable_assemblage,
    random_functional,
    random_povm,
    random_projective_qubit_povm,
    random_pure_state,
    separable_functional,
)

BELL = PureState(np.array([[1, 0], [0, 1]]) / math.sqrt(2))
PRODUCT = PureState(np.array([[1, 0], [0, 0]], dtype=complex))
ROOT2 = math.sqrt(2)


def _theta_state(theta):
    return PureState(np.diag([math.cos(theta), math.sin(theta)]).astype(complex))


def _chsh_observables():
    a = [PAULI_Z, PAULI_X]
    b = [(PAULI_Z + PAULI_X) / ROOT2, (PAULI_Z - PAULI_X) / ROOT2]
    return a, b


def _correlation_functional(c):
    """phi from a correlation-coefficient matrix over ±1 outcomes."""
    labels = (1.0, -1.0)
    signs = np.array(labels)
    phi = np.einsum("st,a,b->stab", np.asarray(c, dtype=float), signs, signs)
    return BellFunctional(OutcomeSet(labels), OutcomeSet(labels), phi)


class TestFunctionalValidation:
    def test_outcome_set(self):
        with pytest.raises(ValueError, match="at least 2"):
            OutcomeSet((1.0,))
        with pytest.raises(ValueError, match="distinct"):
            OutcomeSet((1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            OutcomeSet((1.0, math.nan))

    def test_phi_shape(self):
        out = OutcomeSet((1.0, -1.0))
        with pytest.raises(ValueError, match="4 axes"):
            BellFunctional(out, out, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="outcome axes"):
            BellFunctional(out, out, np.zeros((2, 2, 3, 2)))

    def test_extrema_invariants(self):
        with pytest.raises(ValidationError):
            LhvExtrema(
                b_sup=-1.0, b_inf=1.0, b_lhv=1.0,
                argmax_strategy=((0,), (0,)), argmin_strategy=((0,), (0,)),
            )
        with pytest.raises(ValidationError, match="b_lhv"):
            LhvExtrema(
                b_sup=2.0, b_inf=-2.0, b_lhv=1.0,
                argmax_strategy=((0,), (0,)), argmin_strategy=((0,), (0,)),
            )


class TestLhvExtrema:
    def test_chsh(self):
        ext = lhv_extrema(chsh_functional())
        assert (ext.b_sup, ext.b_inf, ext.b_lhv) == (2.0, -2.0, 2.0)

    def test_witnesses_reproduce_extrema(self):
        f = chsh_functional()
        ext = lhv_extrema(f)
        assert strategy_value(f, *ext.argmax_strategy) == ext.b_sup
        assert strategy_value(f, *ext.argmin_strategy) == ext.b_inf

    def test_zero_functional(self):
        f = _correlation_functional(np.zeros((2, 2)))
        ext = lhv_extrema(f)
        assert (ext.b_sup, ext.b_inf, ext.b_lhv) == (0.0, 0.0, 0.0)

    def test_single_setting_correlation(self):
        ext = lhv_extrema(_correlation_functional([[1.0]]))
        assert (ext.b_sup, ext.b_inf) == (1.0, -1.0)

    def test_matches_brute_force_integer(self):
        rng = np.random.default_rng(51)
        shapes = [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 2), (1, 4, 2, 2), (3, 3, 2, 2)]
        for s1, s2, m1, m2 in shapes:
            for _ in range(6):
                f = random_functional(
                    rng, s1, s2,
                    labels1=tuple(float(k) for k in range(m1)),
                    labels2=tuple(float(k) for k in range(m2)),
                    integer_valued=True,
                )
                ext = lhv_extrema(f)
                sup, inf = brute_force_extrema(f)
                # integer weights make every strategy sum exact in floats
                assert ext.b_sup == sup
                assert ext.b_inf == inf
                assert strategy_value(f, *ext.argmax_strategy) == sup

    def test_matches_brute_force_real(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            f = random_functional(rng, 2, 3)
            ext = lhv_extrema(f)
            sup, inf = brute_force_extrema(f)
            assert ext.b_sup == pytest.approx(sup, abs=1e-12)
            assert ext.b_inf == pytest.approx(inf, abs=1e-12)

    def test_enumeration_guard(self):
        # 2^16 strategies of one site, each summing 16 slices of a 16 x 2 table
        f = random_functional(np.random.default_rng(0), 16, 16)
        with pytest.raises(CapacityError, match="enumeration guard"):
            lhv_extrema(f)

    def test_guard_counts_enumerated_strategies(self):
        # 16.7M strategy pairs, but only 4096 strategies of one site are enumerated
        g, h, f = separable_functional(np.random.default_rng(57), 12, 12)
        ext = lhv_extrema(f)
        # integer weights keep every sum exact
        assert ext.b_sup == 12 * g.max(axis=1).sum() + 12 * h.max(axis=1).sum()
        assert ext.b_inf == 12 * g.min(axis=1).sum() + 12 * h.min(axis=1).sum()

    def test_strategy_length_checked(self):
        with pytest.raises(ValueError, match="lengths"):
            strategy_value(chsh_functional(), (0,), (0, 0))


class TestQuantumProbabilities:
    def test_bell_computational_basis(self):
        proj = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        asm = Assemblage(site1=(tuple(proj),), site2=(tuple(proj),))
        table = quantum_probabilities(BELL, asm, 0, 0)
        assert_allclose(table, np.diag([0.5, 0.5]), atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(61)
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
        st = PureState(np.outer(v1, v2))
        p1 = random_projective_qubit_povm(rng)
        p2 = random_projective_qubit_povm(rng)
        asm = Assemblage(site1=(tuple(p1),), site2=(tuple(p2),))
        table = quantum_probabilities(st, asm, 0, 0)
        m1 = [float(np.vdot(v1, e @ v1).real) for e in p1]
        m2 = [float(np.vdot(v2, e @ v2).real) for e in p2]
        assert_allclose(table, np.outer(m1, m2), atol=1e-12)

    def test_against_kron_oracle(self):
        # Born rule spelled out on the full 4-dimensional vector
        rng = np.random.default_rng(67)
        st = random_pure_state(rng, 2, 2)
        psi = st.vector()
        p1 = random_povm(rng, 2, 2)
        p2 = random_povm(rng, 2, 3)
        asm = Assemblage(site1=(tuple(p1),), site2=(tuple(p2),))
        table = quantum_probabilities(st, asm, 0, 0)
        for a in range(2):
            for b in range(3):
                want = float(np.vdot(psi, np.kron(p1[a], p2[b]) @ psi).real)
                assert table[a, b] == pytest.approx(want, abs=1e-12)

    def test_normalized_and_no_signalling(self):
        rng = np.random.default_rng(71)
        st = random_pure_state(rng, 3, 2)
        asm = Assemblage(
            site1=tuple(tuple(random_povm(rng, 3, 2)) for _ in range(2)),
            site2=tuple(tuple(random_povm(rng, 2, 3)) for _ in range(2)),
        )
        for s in range(2):
            rows = []
            for t in range(2):
                table = quantum_probabilities(st, asm, s, t)
                assert table.min() > -1e-12
                assert table.sum() == pytest.approx(1.0, abs=1e-9)
                rows.append(table.sum(axis=1))
            # site-1 marginal cannot depend on the remote setting
            assert_allclose(rows[0], rows[1], atol=1e-9)

    def test_dimension_mismatch(self):
        proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        asm = Assemblage(site1=(tuple(proj),), site2=(tuple(proj),))
        st = random_pure_state(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="do not match"):
            quantum_probabilities(st, asm, 0, 0)

    def test_setting_out_of_range(self):
        proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        asm = Assemblage(site1=(tuple(proj),), site2=(tuple(proj),))
        with pytest.raises(ValueError, match="out of range"):
            quantum_probabilities(BELL, asm, 1, 0)


class TestAssemblageValidation:
    def test_not_summing_to_identity(self):
        bad = (np.diag([1.0, 0.0]), np.diag([0.0, 0.5]))
        good = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match="sum to"):
            Assemblage(site1=(bad,), site2=(good,))

    def test_negative_element(self):
        bad = (np.diag([1.5, 0.0]), np.diag([-0.5, 1.0]))
        good = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match="positive semidefinite"):
            Assemblage(site1=(good,), site2=(bad,))

    def test_non_hermitian_element(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="Hermitian"):
            Assemblage(
                site1=((m, np.eye(2) - m),),
                site2=((np.eye(2) / 2, np.eye(2) / 2),),
            )


class TestBellValue:
    def test_chsh_canonical_observables(self):
        a, b = _chsh_observables()
        asm = observable_assemblage(a, b)
        val = bell_value(chsh_functional(), BELL, asm)
        assert val == pytest.approx(2 * ROOT2, abs=1e-9)

    def test_zero_functional(self):
        f = _correlation_functional(np.zeros((2, 2)))
        a, b = _chsh_observables()
        assert bell_value(f, BELL, observable_assemblage(a, b)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_stays_classical(self):
        rng = np.random.default_rng(73)
        f = chsh_functional()
        for _ in range(15):
            asm = Assemblage(
                site1=tuple(tuple(random_projective_qubit_povm(rng)) for _ in range(2)),
                site2=tuple(tuple(random_projective_qubit_povm(rng)) for _ in range(2)),
            )
            assert abs(bell_value(f, PRODUCT, asm)) <= 2.0 + 1e-9

    def test_any_state_respects_quantum_maximum(self):
        rng = np.random.default_rng(79)
        f = chsh_functional()
        for _ in range(15):
            st = random_pure_state(rng, 2, 2)
            asm = Assemblage(
                site1=tuple(tuple(random_povm(rng, 2, 2)) for _ in range(2)),
                site2=tuple(tuple(random_povm(rng, 2, 2)) for _ in range(2)),
            )
            assert abs(bell_value(f, st, asm)) <= 2 * ROOT2 + 1e-9

    def test_setting_count_mismatch(self):
        a, b = _chsh_observables()
        asm = observable_assemblage(a[:1], b)
        with pytest.raises(ValueError, match="setting counts"):
            bell_value(chsh_functional(), BELL, asm)

    def test_dimension_mismatch(self):
        a, b = _chsh_observables()
        asm = observable_assemblage(a, b)
        rect = random_pure_state(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match="assemblage dimensions"):
            bell_value(chsh_functional(), rect, asm)
        # outcome counts are checked before dimensions
        three = BellFunctional(OutcomeSet((0.0, 1.0, 2.0)), OutcomeSet((1.0, -1.0)),
                               np.zeros((2, 2, 3, 2)))
        with pytest.raises(ValueError, match="site 1 setting 0 has 2 outcomes"):
            bell_value(three, rect, asm)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_matches_kron_oracle(self, data):
        d1, d2 = (data.draw(hst.integers(1, 6), label=k) for k in ("d1", "d2"))
        s1, s2 = (data.draw(hst.integers(1, 3), label=k) for k in ("s1", "s2"))
        m1, m2 = (data.draw(hst.integers(2, 4), label=k) for k in ("m1", "m2"))
        scale = 10.0 ** data.draw(hst.floats(-6.0, 9.0), label="log10 scale")
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        state = random_pure_state(rng, d1, d2)
        povms1 = [random_povm(rng, d1, m1) for _ in range(s1)]
        povms2 = [random_povm(rng, d2, m2) for _ in range(s2)]
        asm = Assemblage(site1=tuple(map(tuple, povms1)), site2=tuple(map(tuple, povms2)))
        f = BellFunctional(
            OutcomeSet(tuple(float(k) for k in range(m1))),
            OutcomeSet(tuple(float(k) for k in range(m2))),
            scale * rng.standard_normal((s1, s2, m1, m2)),
        )
        # Born rule on the full d1*d2 vector, one outcome pair at a time
        psi = state.vector()
        p = np.empty((s1, s2, m1, m2))
        for s, t, a, b in np.ndindex(p.shape):
            op = np.kron(povms1[s][a], povms2[t][b])
            p[s, t, a, b] = np.vdot(psi, op @ psi).real
        for s, t in np.ndindex(s1, s2):
            assert_allclose(quantum_probabilities(state, asm, s, t), p[s, t],
                            rtol=0, atol=1e-12)
        want = float(np.sum(f.phi * p))
        tol = 1e-12 * max(1.0, float(np.abs(f.phi).sum()))
        assert abs(bell_value(f, state, asm) - want) <= tol


class TestSeesaw:
    def test_bell_state_reaches_tsirelson(self):
        value, asm = seesaw_maximize(chsh_functional(), BELL, restarts=3, seed=0)
        assert value == pytest.approx(2 * ROOT2, abs=1e-6)
        # the reported value comes straight from the returned assemblage
        assert bell_value(chsh_functional(), BELL, asm) == pytest.approx(value, abs=1e-12)

    def test_product_state_capped(self):
        value, _ = seesaw_maximize(chsh_functional(), PRODUCT, restarts=3, seed=1)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_partially_entangled_matches_oracle(self):
        theta = math.pi / 8
        st = _theta_state(theta)
        value, _ = seesaw_maximize(chsh_functional(), st, restarts=5, seed=2)
        assert value == pytest.approx(chsh_max_two_qubit(st), abs=1e-6)
        assert value == pytest.approx(2 * math.sqrt(1 + math.sin(2 * theta) ** 2), abs=1e-6)

    def test_rejects_non_binary_labels(self):
        f = random_functional(
            np.random.default_rng(0), 2, 2, labels1=(0.0, 1.0), labels2=(1.0, -1.0)
        )
        with pytest.raises(UnsupportedFunctionalError, match="site 1"):
            seesaw_maximize(f, BELL)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            seesaw_maximize(chsh_functional(), BELL, restarts=0)
        with pytest.raises(ValueError):
            seesaw_maximize(chsh_functional(), BELL, tol=-1.0)

    def test_deterministic_given_seed(self):
        f = random_functional(np.random.default_rng(5), 2, 2)
        v1, _ = seesaw_maximize(f, BELL, restarts=2, seed=9)
        v2, _ = seesaw_maximize(f, BELL, restarts=2, seed=9)
        assert v1 == v2

    def test_scaled_weights_search_cleanly(self):
        # float noise in the objective grows with the weights; the
        # monotonicity guard must not mistake it for a broken update
        f = chsh_functional()
        scaled = BellFunctional(f.outcomes1, f.outcomes2, 1e9 * f.phi)
        value, asm = seesaw_maximize(scaled, BELL, restarts=3, seed=0)
        assert value == pytest.approx(2e9 * ROOT2, rel=1e-9)
        assert bell_value(scaled, BELL, asm) == pytest.approx(value, rel=1e-12)

    def test_broken_response_trips_guard(self, monkeypatch):
        # the guard compares the objective at the returned observables, so a
        # response that picks the worst signs instead of the best is caught
        import bellbound.bell as bell_module

        best = bell_module._sign_observables
        monkeypatch.setattr(bell_module, "_sign_observables", lambda h: -best(h))
        with pytest.raises(RuntimeError, match="objective decreased"):
            seesaw_maximize(chsh_functional(), BELL, restarts=1)

    @pytest.mark.parametrize("s1, s2", [(3, 2), (2, 4)])
    def test_one_eigh_per_half_sweep(self, s1, s2, monkeypatch):
        # start, first response and two half-sweeps: one stacked eigh each,
        # whatever the setting counts
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        f = random_functional(np.random.default_rng(7), s1, s2)
        seesaw_maximize(f, BELL, restarts=1, max_iters=1)
        assert len(calls) == 4


class TestCertify:
    def test_chsh_tsirelson_certified(self):
        rep = certify(chsh_functional(), BELL, 2 * ROOT2)
        assert rep.ratio == pytest.approx(ROOT2, abs=1e-12)
        assert rep.b_lhv == 2.0
        assert rep.bound_schmidt_settings == pytest.approx(3.0)
        assert rep.bound_dimension_settings == pytest.approx(3.0)
        assert rep.certified
        assert rep.band == pytest.approx((-6.0, 6.0))
        assert rep.value_in_band

    def test_fabricated_value_rejected(self):
        rep = certify(chsh_functional(), BELL, 10.0)
        assert rep.ratio == pytest.approx(5.0)
        assert not rep.certified
        assert not rep.value_in_band

    def test_product_state_value(self):
        rep = certify(chsh_functional(), PRODUCT, 2.0)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.certified

    def test_degenerate_functional(self):
        f = _correlation_functional(np.zeros((2, 2)))
        with pytest.raises(DegeneracyError, match="classical bound is zero"):
            certify(f, BELL, 0.5)

    def test_seesaw_values_always_certify(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            st = random_pure_state(rng, 2, 2)
            f = random_functional(rng, 2, 2)
            if lhv_extrema(f).b_lhv < 1e-9:
                continue
            value, _ = seesaw_maximize(f, st, restarts=3, max_iters=60, seed=11)
            rep = certify(f, st, value)
            assert rep.certified
            assert rep.value_in_band
