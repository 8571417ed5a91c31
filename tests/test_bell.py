"""Classical extrema, quantum values, see-saw search, and certification."""

import contextlib
import math
from unittest import mock

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
import bellbound.bell as bell_module
from bellbound.qstate import PSD_ATOL
from helpers import (
    PAULI_X,
    PAULI_Z,
    brute_force_enumeration,
    brute_force_extrema,
    brute_force_lhv,
    chsh_max_two_qubit,
    count_lapack,
    observable_assemblage,
    random_functional,
    random_povm,
    random_projective_qubit_povm,
    random_pure_state,
    random_unit_vector,
    reference_assemblage,
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_matches_pair_enumeration_bitwise(self, data):
        # brute force over every strategy pair sums in the library's order,
        # so extrema and first witnesses must agree exactly; small chunks
        # force the loop over leading settings
        s1, s2, m1, m2 = data.draw(hst.sampled_from(
            [(2, 2, 2, 2), (3, 2, 2, 3), (9, 2, 2, 2), (2, 9, 2, 2), (9, 2, 2, 3),
             (4, 3, 3, 3), (2, 5, 2, 3), (1, 3, 4, 2), (2, 3, 5, 2), (3, 2, 2, 5)]),
            label="shape")
        integer = data.draw(hst.booleans(), label="integer weights")
        scale = 10.0 ** data.draw(hst.sampled_from([-6, 0, 3, 7, 9]), label="log10 scale")
        chunk = data.draw(hst.sampled_from([1, 5, 16, bell_module._CHUNK]), label="chunk")
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        shape = (s1, s2, m1, m2)
        # integer weights in -2..2 tie often
        phi = rng.integers(-2, 3, size=shape) if integer else rng.standard_normal(shape)
        f = BellFunctional(OutcomeSet(tuple(float(k) for k in range(m1))),
                           OutcomeSet(tuple(float(k) for k in range(m2))), scale * phi)
        with mock.patch.object(bell_module, "_CHUNK", chunk):
            ext = lhv_extrema(f)
        got = (ext.b_sup, ext.argmax_strategy, ext.b_inf, ext.argmin_strategy)
        assert got == brute_force_lhv(f)

    def test_multi_chunk_enumeration_bitwise(self):
        # 3^9 inner strategies exceed the chunk: three blocks of 3^8 rows
        phi = 1e7 * np.random.default_rng(89).standard_normal((1, 3, 9, 3))
        assert 3**9 > bell_module._CHUNK
        assert bell_module._enumerate_extrema(phi) == brute_force_enumeration(phi)

    @pytest.mark.parametrize("s1", [9, 10])
    def test_chunking_does_not_change_results(self, s1):
        # 3 outcomes, s1 x 9 settings: 3^9 strategies of site 2 in blocks, and
        # in one block when the chunk is raised
        f = random_functional(np.random.default_rng(s1), s1, 9, (0.0, 1.0, 2.0),
                              (0.0, 1.0, 2.0), integer_valued=True)
        ext = lhv_extrema(f)
        with mock.patch.object(bell_module, "_CHUNK", 3**9):
            assert lhv_extrema(f) == ext
        assert strategy_value(f, *ext.argmax_strategy) == ext.b_sup
        assert strategy_value(f, *ext.argmin_strategy) == ext.b_inf

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


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _povm_with_min_eigenvalue(rng, d, m, lam):
    """POVM of m elements in one random eigenbasis; element 0 has eigenvalue lam."""
    u = _unitary(rng, d)
    first = np.concatenate([[lam], rng.uniform(0.1, 0.5, d - 1)])
    shares = rng.dirichlet(np.ones(m - 1), size=d).T * (1.0 - first)
    return [(u * w) @ u.conj().T for w in np.vstack([first, shares])]


def _projective_povm(rng, d, m):
    """Rank-deficient projectors on a random basis; some may be zero."""
    u = _unitary(rng, d)
    owner = rng.integers(m, size=d)
    return [(u * (owner == a)) @ u.conj().T for a in range(m)]


#: Settings of the Assemblage deck: valid kinds first and weighted, so that
#: whole decks are often accepted, then the spoiled kinds.
_SETTING_KINDS = 3 * ("wishart", "projectors", "eigenvalue") + (
    "asymmetry", "nan", "inf", "over_gate", "ragged", "other_dim")


def _assemblage_setting(data, rng, d):
    """One setting of the Assemblage deck: a valid POVM or a spoiled one."""
    kind = data.draw(hst.sampled_from(_SETTING_KINDS), label="kind")
    m = data.draw(hst.integers(2, 3), label="outcomes")
    if kind == "projectors":
        return _projective_povm(rng, d, m)
    if kind == "eigenvalue":
        factor = data.draw(hst.sampled_from([-1.1, -0.9, -0.5, 0.5, 0.9, 1.1]), label="x")
        return _povm_with_min_eigenvalue(rng, d, m, factor * PSD_ATOL)
    if kind == "other_dim":
        # another dimension, valid or with a non-PSD element first or last
        where = data.draw(hst.sampled_from(["none", "first", "last"]), label="non-PSD")
        povm = _povm_with_min_eigenvalue(rng, d + 1, m, 0.1 if where == "none" else -1e-3)
        return povm[::-1] if where == "last" else povm
    povm = random_povm(rng, d, m)
    a = data.draw(hst.integers(0, m - 1), label="element")
    i, j = (1, 0) if d > 1 else (0, 0)
    if kind == "asymmetry":
        gap = data.draw(hst.sampled_from([0.0, 1e-11, 2e-10]), label="gap")
        povm[a][i, j] += gap if d > 1 else 0.5j * gap
    elif kind in ("nan", "inf"):
        povm[a][i, j] = math.nan if kind == "nan" else math.inf
    elif kind == "over_gate":
        povm[a] = 1e6 * povm[a]
    elif kind == "ragged":
        povm[a] = np.eye(d + 1) / m
    return povm


def _validated_or_error(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def _assert_matches_reference(sites):
    """Same verdict, same first message and the same read-only arrays as the reference."""
    want = _validated_or_error(lambda: reference_assemblage(*sites))
    got = _validated_or_error(lambda: Assemblage(*sites))
    if isinstance(want, str):
        assert got == want
        return
    got = (got.site1, got.site2)
    assert [[len(p) for p in site] for site in got] == [[len(p) for p in site] for site in want]
    for site_got, site_want in zip(got, want):
        for povm_got, povm_want in zip(site_got, site_want):
            for e_got, e_want in zip(povm_got, povm_want):
                assert np.array_equal(e_got, e_want)
                assert not e_got.flags.writeable


class TestAssemblageValidation:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_matches_per_element_reference(self, data):
        # same verdict, same first message and the same arrays as one
        # eigvalsh per element
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        sites = []
        for site in ("site 1", "site 2"):
            d = data.draw(hst.integers(1, 4), label=f"{site} dimension")
            n = data.draw(hst.integers(1, 3), label=f"{site} settings")
            sites.append(tuple(tuple(_assemblage_setting(data, rng, d)) for _ in range(n)))
        _assert_matches_reference(sites)

    @pytest.mark.parametrize("d", [32, 96])
    @pytest.mark.parametrize("spoils", [
        {},
        {(0, 9): "non_psd"},
        {(1, 6): "asymmetric"},
        {(1, 3): "sum"},
        {(0, 2): "sum", (0, 5): "asymmetric", (0, 9): "non_psd"},
        {(0, 9): "non_psd", (1, 0): "sum"},
        pytest.param({"outcomes": (2, 3)}, id="ragged"),
        pytest.param({"outcomes": (2, 3), (1, 9): "non_psd"}, id="ragged_spoiled"),
    ])
    def test_large_sites_match_reference(self, d, spoils):
        # 10 two-outcome settings a site: at d = 32 they form check groups
        # of 4, 4 and 2 settings, at d = 96 one setting each; every spoiled
        # setting fails exactly one check.  With "outcomes" (2, 3) the
        # settings alternate 2 and 3 outcomes, so no site stacks and every
        # element is checked alone
        rng = np.random.default_rng(d)
        outcomes = spoils.get("outcomes", (2,))
        sites = []
        for site in (0, 1):
            settings = []
            for s in range(10):
                m = outcomes[s % len(outcomes)]
                povm = random_povm(rng, d, m)
                kind = spoils.get((site, s))
                if kind == "non_psd":
                    povm = _povm_with_min_eigenvalue(rng, d, m, -1e-3)[::-1]
                elif kind == "asymmetric":  # the sum stays the identity
                    povm[0][1, 0] += 2e-10
                    povm[1][1, 0] -= 2e-10
                elif kind == "sum":
                    povm = [(1.0 + 1e-9) * e for e in povm]
                settings.append(tuple(povm))
            sites.append(tuple(settings))
        _assert_matches_reference(sites)

    _count_lapack = staticmethod(count_lapack)

    @pytest.mark.parametrize("d", [2, 32, 96])
    def test_one_cholesky_per_setting(self, d, monkeypatch):
        # one Cholesky per group of settings of at most 2^13 entries: each
        # site is one group below d = 96, and each setting its own group there
        groups = 5 if d == 96 else 2
        rng = np.random.default_rng(d)
        site1 = tuple(tuple(random_povm(rng, d, 3)) for _ in range(2))
        site2 = tuple(tuple(random_povm(rng, d, 2)) for _ in range(3))
        calls = self._count_lapack(monkeypatch)
        asm = Assemblage(site1, site2)
        assert calls == {"cholesky": groups, "eigvalsh": 0}
        # every element of a site is a read-only view of the site's one copy
        for site in (asm.site1, asm.site2):
            for povm in site:
                assert all(e.base is site[0][0].base for e in povm)
                assert not povm[0].base.flags.writeable

    def test_every_setting_is_one_stack(self):
        # site 1 is ragged (checked tier), site 2 stacks, and the see-saw
        # hands its (s, m, d, d) sites to the stacked tier
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        asm = Assemblage(((p0, p1), (p0, p1, np.zeros((2, 2)))), [np.array([p0, p1])])
        _, found = seesaw_maximize(chsh_functional(), BELL, restarts=1)
        for site, outcomes in ((asm.site1, (2, 3)), (asm.site2, (2,)),
                               (found.site1, (2, 2)), (found.site2, (2, 2))):
            assert type(site) is tuple
            assert [(type(povm), povm.shape) for povm in site] == [
                (np.ndarray, (m, 2, 2)) for m in outcomes]
            assert not any(povm.flags.writeable for povm in site)
        assert np.array_equal(asm.site1[1][1], p1) and len(asm.site1[1]) == 3
        for site in (found.site1, found.site2):
            assert site[0].base is site[1].base

    def test_uncertified_setting_falls_back(self, monkeypatch):
        # site 1 is ragged, so each element is checked alone; lambda_min =
        # -0.9 PSD_ATOL: the shifted Cholesky of that element fails, eigvalsh
        # accepts it, and the other four elements and site 2 are certified
        rng = np.random.default_rng(101)
        edge = tuple(_povm_with_min_eigenvalue(rng, 4, 3, -0.9 * PSD_ATOL))
        valid = tuple(random_povm(rng, 4, 2))
        calls = self._count_lapack(monkeypatch)
        Assemblage(site1=(valid, edge), site2=(valid,))
        assert calls == {"cholesky": 6, "eigvalsh": 1}

    def test_norm_gate_falls_back(self, monkeypatch):
        # at d = 200 the Cholesky error bound of a valid two-outcome POVM
        # exceeds the shift, so the setting is checked element by element
        povm = tuple(_projective_povm(np.random.default_rng(103), 200, 2))
        calls = self._count_lapack(monkeypatch)
        Assemblage(site1=(povm,), site2=((np.eye(1), np.zeros((1, 1))),))
        assert calls == {"cholesky": 1, "eigvalsh": 2}

    def test_non_finite_element_named(self):
        valid = (np.eye(2) / 2, np.eye(2) / 2)
        bad = (np.array([[math.nan, 0.0], [0.0, 0.5]]), np.eye(2) / 2)
        with pytest.raises(ValidationError) as err:
            Assemblage(site1=(valid,), site2=(valid, bad))
        assert str(err.value) == "site 2 setting 1 element 0 has a NaN or infinite entry"

    def test_empty_element_named(self):
        empty = (np.zeros((0, 0)), np.zeros((0, 0)))
        one = (np.eye(1), np.zeros((1, 1)))
        for site1, site2, where in (((empty,), (one,), "site 1 setting 0"),
                                    ((one,), (one, empty), "site 2 setting 1")):
            with pytest.raises(ValidationError) as err:
                Assemblage(site1=site1, site2=site2)
            assert str(err.value) == f"{where} element 0 is empty, got shape (0, 0)"

    def test_empty_non_square_element_named_as_reference(self):
        # a (0, 3) element is refused as not square before it is called empty
        empty = (np.zeros((0, 3)), np.zeros((0, 3)))
        _assert_matches_reference(((empty,), ((np.eye(1), np.zeros((1, 1))),)))

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_norm_falls_back_quietly(self, scale, monkeypatch):
        # the site's sum fails, so each element is checked alone: ||scale I||_F
        # overflows, the gate fails without a warning and eigvalsh accepts the
        # element; the zero element is certified; the sum-to-identity check
        # refuses them
        povm = (scale * np.eye(2), np.zeros((2, 2)))
        calls = self._count_lapack(monkeypatch)
        with pytest.raises(ValidationError) as err:
            Assemblage(site1=(povm,), site2=((np.eye(1), np.zeros((1, 1))),))
        assert str(err.value) == ("site 1 setting 0: POVM elements do not sum to identity "
                                  f"(max deviation {scale:.3e})")
        assert calls == {"cholesky": 1, "eigvalsh": 1}

    def test_three_axis_element_is_not_a_stack(self):
        # a ragged setting is checked element by element, and an element
        # with three axes is refused, not taken for a stack of matrices
        povm = (np.stack([np.eye(2) / 2] * 2), np.eye(2) / 2)
        message = r"site 1 setting 0 element 0 must be square, got shape \(2, 2, 2\)"
        with pytest.raises(ValidationError, match=message):
            Assemblage(site1=(povm,), site2=((np.eye(1), np.zeros((1, 1))),))

    def test_later_setting_of_other_dimension(self):
        valid2 = (np.eye(2) / 2, np.eye(2) / 2)
        valid3 = (np.eye(3) / 2, np.eye(3) / 2)
        with pytest.raises(ValidationError,
                           match="site 2 setting 1 element 0: dimension 3 differs from 2"):
            Assemblage(site1=(valid2,), site2=(valid2, valid3))

    def test_asymmetric_element_certified_on_its_hermitian_part(self):
        # m = -2g (strict upper ones): asymmetry 2g passes, but its Hermitian
        # part -g (J - I) has lambda_min = -3g < -PSD_ATOL although the lower
        # triangle alone (zero) is PSD
        g = 4.5e-11
        m = -2 * g * np.triu(np.ones((4, 4)), 1)
        with pytest.raises(ValidationError, match="element 0 is not positive semidefinite"):
            Assemblage(site1=((m, np.eye(4) - m),), site2=((np.eye(1), np.zeros((1, 1))),))

    @pytest.mark.parametrize("factor", [-1.1, -0.9, -0.5, 0.5, 0.9, 1.1])
    def test_psd_tolerance_edge(self, factor):
        povm = _povm_with_min_eigenvalue(np.random.default_rng(97), 4, 3, factor * PSD_ATOL)
        good = (np.eye(4) / 2, np.eye(4) / 2)
        if factor < -1.0:
            with pytest.raises(ValidationError, match="site 1 setting 0 element 0 is not pos"):
                Assemblage(site1=(tuple(povm),), site2=(good,))
        else:
            Assemblage(site1=(tuple(povm),), site2=(good,))

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

    def test_sweep_budget_capped_before_any_draw(self, monkeypatch):
        cap = bell_module.MAX_SEESAW_SWEEPS
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", mock.Mock(side_effect=AssertionError))
            with pytest.raises(CapacityError, match="cap of"):
                seesaw_maximize(chsh_functional(), BELL, restarts=2, max_iters=cap // 2 + 1)
        # the cap itself is admitted; CHSH converges in a few sweeps
        value, _ = seesaw_maximize(chsh_functional(), BELL, restarts=1, max_iters=cap)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-9)

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
        best = bell_module._sign_observables
        monkeypatch.setattr(bell_module, "_sign_observables", lambda h: -best(h))
        with pytest.raises(RuntimeError, match="objective decreased"):
            seesaw_maximize(chsh_functional(), BELL, restarts=1)

    @pytest.mark.parametrize("drop, trips", [(0.5e-9, False), (2e-9, True)])
    def test_guard_takes_the_band_slack(self, drop, trips, monkeypatch):
        # at sum |phi| = 1e-3 the guard allows VALUE_SLACK * max(1, 1e-3) = 1e-9,
        # the slack of certify's band (TestCertify.test_band_slack_scales_with_weights)
        f = chsh_functional()
        tiny = BellFunctional(f.outcomes1, f.outcomes2, f.phi * (1e-3 / 16))
        assert bell_module._value_slack(tiny) == 1e-9
        # the second half-sweep reports the first one's value less `drop`
        best, values = bell_module._best_response, []

        def lagging(*args):
            ops, value = best(*args)
            values.append(values[1] - drop if len(values) == 2 else value)
            return ops, values[-1]

        monkeypatch.setattr(bell_module, "_best_response", lagging)
        with (pytest.raises(RuntimeError, match="objective decreased") if trips
              else contextlib.nullcontext()):
            seesaw_maximize(tiny, BELL, restarts=1, max_iters=1)

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

    def test_product_states_band_is_classical(self):
        # the rank-1 Schmidt sum can round below 1; clamped, the band of a
        # product state is exactly the classical interval
        rng = np.random.default_rng(107)
        for _ in range(200):
            d1, d2, s1, s2 = (int(v) for v in rng.integers(1, [5, 5, 4, 4]))
            st = PureState(np.outer(random_unit_vector(rng, d1), random_unit_vector(rng, d2)))
            f = random_functional(rng, s1, s2)
            ext = lhv_extrema(f)
            rep = certify(f, st, ext.b_sup)
            assert rep.bound_schmidt_settings == 1.0
            assert rep.band == (ext.b_inf, ext.b_sup)
            assert rep.value_in_band

    def test_band_slack_scales_with_weights(self):
        f = chsh_functional()
        for scale in (1e-3, 1.0, 1e6, 1e9):
            scaled = BellFunctional(f.outcomes1, f.outcomes2, scale * f.phi)
            slack = 1e-9 * max(1.0, 16 * scale)
            assert certify(scaled, PRODUCT, 2 * scale + 0.5 * slack).value_in_band
            assert not certify(scaled, PRODUCT, 2 * scale + 2 * slack).value_in_band

    def test_product_state_seesaw_values_in_band(self):
        # at weights 1e6 to 1e9 the see-saw's classical maximum can exceed
        # b_sup by more than an absolute 1e-9
        rng = np.random.default_rng(109)
        for k in range(20):
            d1, d2 = (int(v) for v in rng.integers(1, 5, size=2))
            st = PureState(np.outer(random_unit_vector(rng, d1), random_unit_vector(rng, d2)))
            g = random_functional(rng, 2, 2)
            f = BellFunctional(g.outcomes1, g.outcomes2, 10 ** rng.uniform(6, 9) * g.phi)
            value, _ = seesaw_maximize(f, st, restarts=2, max_iters=50, seed=k)
            assert certify(f, st, value).value_in_band

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ValidationError) as err:
            certify(chsh_functional(), BELL, value)
        assert str(err.value) == f"claimed quantum value must be finite, got {value!r}"

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
