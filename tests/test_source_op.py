"""Source-operator construction, dilation checks, and trace norms."""

import copy
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellbound import (
    Assemblage,
    CapacityError,
    CoherentFamily,
    DensityOperator,
    PureState,
    ValidationError,
    build_source_1xs,
    build_source_sx1,
    chsh_functional,
    coherent_fock_vector,
    fock_truncation,
    gram_schmidt_basis,
    max_tensor_dim,
    schmidt_decompose,
    schmidt_sum_squared,
    seesaw_maximize,
    source_operator_from_json,
    source_operator_to_json,
    trace_norm,
    two_mode_amplitudes,
    verify_dilation,
)
from bellbound import qstate, source_op
from bellbound.qstate import _HERM_BLOCK
from bellbound.source_op import DEFAULT_MAX_DIM, SourceOperator
from helpers import count_lapack, random_pure_state, reference_dilation_residual, w_block

BELL = PureState(np.array([[1, 0], [0, 1]]) / math.sqrt(2))


def _four_projector_block(u, v, s):
    """Independent construction of the off-diagonal transfer block."""
    out = np.zeros((len(u) ** s,) * 2, dtype=complex)
    for vec, weight in [
        (u + v, 1.0),
        (u - v, -1.0),
        (u + 1j * v, 1.0j),
        (u - 1j * v, -1.0j),
    ]:
        proj = np.outer(vec, vec.conj())
        term = proj
        for _ in range(s - 1):
            term = np.kron(term, proj)
        out += weight * term
    return out / 2 ** (s + 1)


def _rank_state(rng, d, rank):
    """Random d x d pure state of the given Schmidt rank."""
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) @ (
        rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
    )
    return PureState(g / np.linalg.norm(g))


def _kron_source(sd, s1, s2):
    """Independent source operator: one full kron product per pair of blocks."""

    def block(u, v, s):
        if np.allclose(u, v):
            proj = np.outer(u, u.conj())
            out = proj
            for _ in range(s - 1):
                out = np.kron(out, proj)
            return out
        return _four_projector_block(u, v, s)

    c, left, right = sd.coefficients, sd.left_basis, sd.right_basis
    total = 0
    for k in range(sd.rank):
        for k1 in range(sd.rank):
            total = total + c[k] * c[k1] * np.kron(
                block(left[k], left[k1], s1), block(right[k], right[k1], s2)
            )
    return total


def _marginal(op, slot1, slot2):
    """Two-copy marginal by repeated partial traces over the other copies."""
    n = op.s1 + op.s2
    dims = (op.d1,) * op.s1 + (op.d2,) * op.s2
    t = op.matrix.reshape(dims + dims)
    keep = (slot1, op.s1 + slot2)
    # trace the highest copy first so the lower axis numbers stay valid
    for i in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=i, axis2=t.ndim // 2 + i)
    return t.reshape(op.d1 * op.d2, op.d1 * op.d2)


def _embed_per_slot_residual(op, state, n_samples, seed):
    """The dilation residual with every observable embedded in the full space."""

    def embed(x, d, s, slot):
        return np.kron(np.kron(np.eye(d**slot), x), np.eye(d ** (s - 1 - slot)))

    def unit_hermitian(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        return h / np.max(np.abs(np.linalg.eigvalsh(h)))

    amp = state.amplitudes
    psi = amp.reshape(-1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x1 = unit_hermitian(rng, op.d1)
        x2 = unit_hermitian(rng, op.d2)
        want = np.vdot(psi, np.kron(x1, x2) @ psi)
        for slot1 in range(op.s1):
            for slot2 in range(op.s2):
                e = np.kron(embed(x1, op.d1, op.s1, slot1), embed(x2, op.d2, op.s2, slot2))
                worst = max(worst, abs(np.trace(op.matrix @ e) - want))
    return worst


def _random_unit_hermitian(rng, d):
    """One observable as the dilation check draws it, one sample at a time."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    scale = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if scale < 1e-12:
        return np.eye(d, dtype=complex)
    return h / scale


def _per_sample_residual(op, state, n_samples, seed):
    """The dilation residual on two-copy marginals, one sample pair at a time."""
    amp = state.amplitudes
    marginals = source_op._two_copy_marginals(op)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x1 = _random_unit_hermitian(rng, op.d1)
        x2 = _random_unit_hermitian(rng, op.d2)
        want = complex(np.trace(x1 @ amp @ x2.T @ amp.conj().T))
        got = np.einsum("pabcd,ca,db->p", marginals, x1, x2)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _record_eigvalsh_sizes(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` to record each input's row count; returns the list."""
    sizes = []
    dense_eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return dense_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def _oracle_cases():
    """(state, operator) pairs over d <= 3, s <= 3, full and deficient rank."""
    rng = np.random.default_rng(41)
    cases = []
    for d in (2, 3):
        for rank in sorted({d, d - 1}):
            st = _rank_state(rng, d, rank)
            sd = schmidt_decompose(st)
            assert sd.rank == rank
            for s in (1, 2, 3):
                cases.append((st, build_source_1xs(sd, s)))
                cases.append((st, build_source_sx1(sd, s)))
    return cases


class TestWBlock:
    def test_single_copy_is_transfer_operator(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        assert_allclose(w_block(e0, e1, 1), np.outer(e0, e1.conj()), atol=1e-14)

    def test_matches_projector_combination(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        u, v = np.linalg.qr(raw.conj().T)[0].conj().T
        for s in (1, 2, 3, 4, 5):
            assert_allclose(
                w_block(u, v, s), _four_projector_block(u, v, s), atol=1e-13
            )
        # the projector combination collapses to a plain transfer operator at s=1
        assert_allclose(w_block(u, v, 1), np.outer(u, v.conj()), atol=1e-13)

    def test_identical_vectors_give_projector_power(self):
        e = np.array([0.6, 0.8j], dtype=complex)
        proj = np.outer(e, e.conj())
        assert_allclose(w_block(e, e, 2), np.kron(proj, proj), atol=1e-14)

    def test_adjoint_pairs(self):
        e0 = np.array([1, 0, 0], dtype=complex)
        e1 = np.array([0, 0, 1], dtype=complex)
        w = w_block(e0, e1, 2)
        assert_allclose(w.conj().T, w_block(e1, e0, 2), atol=1e-14)


class TestCopyClasses:
    @pytest.mark.parametrize("d, s", [(1, 4), (2, 1), (2, 9), (3, 5), (4, 4), (6, 3)])
    def test_classes_are_multisets(self, d, s):
        classes, reps = source_op._copy_classes(d, s)
        assert len(reps) == math.comb(d + s - 1, s)
        tuples = np.indices((d,) * s).reshape(s, -1).T  # np.kron order
        assert np.array_equal(reps[classes], np.sort(tuples, axis=1))
        mult = np.bincount(classes, minlength=len(reps))
        assert mult.sum() == d**s
        multinomials = [
            math.factorial(s) // math.prod(math.factorial(n) for n in np.bincount(r, minlength=d))
            for r in reps
        ]
        assert mult.tolist() == multinomials

    @pytest.mark.parametrize("d, s", [(2, 9), (3, 5), (6, 3)])
    def test_monomials_are_tensor_powers(self, d, s):
        rng = np.random.default_rng(61)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        classes, reps = source_op._copy_classes(d, s)
        power = v
        for _ in range(s - 1):
            power = np.kron(power, v)
        assert_allclose(np.prod(v[reps], axis=-1)[classes], power, rtol=1e-14)


class TestBuildSource:
    def test_single_copy_each_side_reproduces_state(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            st = random_pure_state(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            op = build_source_1xs(schmidt_decompose(st), 1)
            psi = st.vector()
            assert np.max(np.abs(op.matrix - np.outer(psi, psi.conj()))) < 1e-10

    def test_bell_two_copies_shape_and_norm(self):
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        assert op.matrix.shape == (8, 8)
        assert (op.s1, op.s2, op.d1, op.d2) == (1, 2, 2, 2)
        assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-12)
        assert np.trace(op.matrix) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(op.matrix) == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_product_state_stays_positive(self):
        st = PureState(np.array([[1, 0], [0, 0]], dtype=complex))
        op = build_source_1xs(schmidt_decompose(st), 3)
        w = np.linalg.eigvalsh(op.matrix)
        assert w.min() > -1e-12
        assert trace_norm(op.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_mirrored_builder(self):
        op = build_source_sx1(schmidt_decompose(BELL), 2)
        assert op.matrix.shape == (8, 8)
        assert (op.s1, op.s2) == (2, 1)
        assert np.trace(op.matrix) == pytest.approx(1.0, abs=1e-12)
        assert verify_dilation(op, BELL, n_samples=10, seed=4) < 1e-9

    def test_trace_norm_within_schmidt_budget(self):
        # unit trace forces norm >= 1; the diagonal blocks contribute their
        # weights once and each off-diagonal block at most twice, capping the
        # norm at 2 (sum_k sqrt(lambda_k))^2 - 1
        rng = np.random.default_rng(9)
        for _ in range(25):
            st = random_pure_state(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            sd = schmidt_decompose(st)
            s2 = int(rng.integers(1, 4))
            norm = trace_norm(build_source_1xs(sd, s2).matrix)
            assert 1.0 - 1e-9 <= norm <= 2.0 * schmidt_sum_squared(sd) - 1.0 + 1e-9

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="BELLBOUND_MAX_DIM"):
            build_source_1xs(schmidt_decompose(BELL), 12)

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("BELLBOUND_MAX_DIM", "8")
        assert max_tensor_dim() == 8
        sd = schmidt_decompose(BELL)
        build_source_1xs(sd, 2)  # 2 * 4 = 8, right at the cap
        with pytest.raises(CapacityError):
            build_source_1xs(sd, 3)
        monkeypatch.delenv("BELLBOUND_MAX_DIM")
        assert max_tensor_dim() == DEFAULT_MAX_DIM


class TestVerifyDilation:
    def test_exact_for_single_copies(self):
        rng = np.random.default_rng(21)
        st = random_pure_state(rng, 3, 4)
        op = build_source_1xs(schmidt_decompose(st), 1)
        assert verify_dilation(op, st, n_samples=10, seed=1) < 1e-12

    def test_bell_two_copies(self):
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        assert verify_dilation(op, BELL, n_samples=20, seed=0) < 1e-9

    def test_random_states_multiple_copies(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            st = random_pure_state(rng, d1, d2)
            s2 = 2 if d2 == 3 else int(rng.integers(2, 4))
            op = build_source_1xs(schmidt_decompose(st), s2)
            assert verify_dilation(op, st, n_samples=5, seed=int(rng.integers(1 << 16))) < 1e-9

    def test_detects_corruption(self):
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        bad = op.matrix.copy()
        bad[0, 1] += 1e-3
        bad[1, 0] += 1e-3
        corrupted = SourceOperator(s1=1, s2=2, d1=2, d2=2, matrix=bad)
        assert verify_dilation(corrupted, BELL, n_samples=20, seed=0) > 1e-4

    def test_dimension_mismatch(self):
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        other = PureState(np.eye(3, dtype=complex) / math.sqrt(3))
        with pytest.raises(ValueError, match="match"):
            verify_dilation(op, other)

    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 1)])
    def test_batched_draws_match_sequential(self, d1, d2):
        n = source_op._DRAW_ENTRIES // (d1 * d1 + d2 * d2) + 1  # one chunk plus one
        chunks = list(source_op._unit_hermitian_pairs(np.random.default_rng(11), d1, d2, n))
        assert [len(x1) for x1, _ in chunks] == [n - 1, 1]
        x1 = np.concatenate([x for x, _ in chunks])
        x2 = np.concatenate([x for _, x in chunks])
        rng = np.random.default_rng(11)
        for i in range(n):
            assert np.array_equal(x1[i], _random_unit_hermitian(rng, d1))
            assert np.array_equal(x2[i], _random_unit_hermitian(rng, d2))

    def test_zero_draw_becomes_identity(self):
        parts = np.zeros((2, 2, 2, 2))
        parts[1, 0] = np.diag([1.0, -2.0])
        x = source_op._unit_hermitian(parts)
        assert np.array_equal(x, [np.eye(2), np.diag([0.5, -1.0])])


def _count_draws(monkeypatch):
    """Record the arguments of every ``standard_normal`` of a new ``default_rng``."""
    draws = []
    make_rng = np.random.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, *args, **kwargs):
            draws.append(args)
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Counting(make_rng(seed)))
    return draws


class TestSeededPairs:
    """An int seed's observable pairs are drawn once per (d1, d2, n_samples, seed)."""

    # every sourceop-ladder dimension (perfbench/workloads.py), then d1 != d2
    DIMS = ((2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (2, 3), (3, 2), (4, 1), (1, 5))

    @staticmethod
    def _one_chunk(d1, d2):
        return source_op._DRAW_ENTRIES // (d1 * d1 + d2 * d2)

    def _cases(self):
        rng = np.random.default_rng(71)
        cases = []
        for i, (d1, d2) in enumerate(self.DIMS):
            st = random_pure_state(rng, d1, d2)
            build = build_source_1xs if i % 2 == 0 else build_source_sx1
            cases.append((st, build(schmidt_decompose(st), 2)))
        return cases

    def test_reuse_is_bit_identical(self):
        source_op._seeded_pairs.cache_clear()
        cases = self._cases()
        for seed in (0, 1, 2**40):
            for _ in range(2):  # the second pass reads the cache
                # sizes interleaved: a key that left out a field would collide
                for extra in (None, 0, 1):
                    for st, op in cases:
                        n = 5 if extra is None else self._one_chunk(op.d1, op.d2) + extra
                        got = verify_dilation(op, st, n_samples=n, seed=seed)
                        assert got == reference_dilation_residual(op, st, n, seed), (op.d1, op.d2)
        info = source_op._seeded_pairs.cache_info()
        # two cached sizes per dimension pair and seed; one chunk plus one streams
        assert info.currsize == 2 * len(cases) * 3
        assert info.hits == info.currsize

    @pytest.mark.parametrize("make_seed", [
        lambda: np.random.SeedSequence(5),
        lambda: np.random.default_rng(5),
        lambda: [1, 2],
        lambda: np.int64(3),
    ], ids=["SeedSequence", "Generator", "list", "int64"])
    def test_other_seeds_stream(self, make_seed):
        st, op = self._cases()[5]
        source_op._seeded_pairs.cache_clear()
        seed, ref_seed = make_seed(), make_seed()
        for _ in range(2):  # a Generator moves on between calls, as before
            got = verify_dilation(op, st, n_samples=20, seed=seed)
            assert got == reference_dilation_residual(op, st, 20, ref_seed)
        assert source_op._seeded_pairs.cache_info().currsize == 0

    def test_second_call_draws_nothing(self, monkeypatch):
        source_op._seeded_pairs.cache_clear()
        st, op = self._cases()[1]
        first = verify_dilation(op, st, n_samples=20, seed=3)
        draws = _count_draws(monkeypatch)
        calls = count_lapack(monkeypatch)
        assert verify_dilation(op, st, n_samples=20, seed=3) == first
        assert draws == [] and calls["eigvalsh"] == 0
        verify_dilation(op, st, n_samples=21, seed=3)  # a new key draws once, one eigvalsh a site
        assert len(draws) == 1 and calls["eigvalsh"] == 2

    def test_large_requests_bypass_the_cache(self):
        source_op._seeded_pairs.cache_clear()
        st = random_pure_state(np.random.default_rng(73), 32, 32)
        op = build_source_1xs(schmidt_decompose(st), 1)
        got = verify_dilation(op, st, n_samples=20, seed=0)  # 20 x 2048 entries: ten chunks
        assert got == reference_dilation_residual(op, st, 20, 0)
        assert source_op._seeded_pairs.cache_info().currsize == 0
        st, op = self._cases()[0]
        n = self._one_chunk(2, 2)
        verify_dilation(op, st, n_samples=n + 1, seed=0)
        assert source_op._seeded_pairs.cache_info().currsize == 0
        verify_dilation(op, st, n_samples=n, seed=0)
        assert source_op._seeded_pairs.cache_info().currsize == 1

    def test_draws_capped_before_any_draw(self, monkeypatch):
        st, op = self._cases()[0]
        n = source_op.MAX_DILATION_ENTRIES // (op.d1**2 + op.d2**2)
        draws = _count_draws(monkeypatch)
        with pytest.raises(CapacityError, match="cap of"):
            verify_dilation(op, st, n_samples=n + 1)
        assert draws == []
        # the cap itself is admitted; no pairs are streamed, to keep the check instant
        monkeypatch.setattr(source_op, "_unit_hermitian_pairs", lambda *args: iter(()))
        assert verify_dilation(op, st, n_samples=n) == 0.0

    def test_cached_pairs_are_read_only(self):
        for x in source_op._seeded_pairs(2, 3, 4, 0):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x.setflags(write=True)
            with pytest.raises(ValueError):
                x[0, 0, 0] = 1.0


class TestFactorisedPath:
    def test_builders_match_kron_reference(self):
        for st, op in _oracle_cases():
            ref = _kron_source(schmidt_decompose(st), op.s1, op.s2)
            assert np.max(np.abs(op.matrix - ref)) <= 1e-13

    def test_operator_is_exactly_hermitian(self):
        for _, op in _oracle_cases():
            assert np.array_equal(op.matrix, op.matrix.conj().T)

    @pytest.mark.parametrize("d, s", [(8, 2), (3, 5)], ids=["N=512", "N=729"])
    def test_multi_block_builds(self, d, s):
        # the (8, 2) core has 8 * C(9, 2) = 288 rows, so its product spans
        # several row blocks and ends on a ragged one; the (3, 5) core has 63
        rng = np.random.default_rng(47)
        for rank in (d, 2):
            sd = schmidt_decompose(_rank_state(rng, d, rank))
            assert sd.rank == rank
            for op in (build_source_1xs(sd, s), build_source_sx1(sd, s)):
                m = op.matrix
                assert m.shape[0] == d ** (s + 1) > _HERM_BLOCK
                assert np.array_equal(m, m.conj().T)
                assert np.max(np.abs(m - _kron_source(sd, op.s1, op.s2))) <= 1e-13
                assert abs(np.trace(m) - 1.0) <= 1e-12

    def test_build_scans_asymmetry_once(self, monkeypatch):
        # Hermitian by construction: only SourceOperator's validation scans
        # it, on the 3 * C(7, 5) = 63 class pairs of the core, not N = 729 rows
        sd = schmidt_decompose(_rank_state(np.random.default_rng(53), 3, 3))
        shapes = []
        scan = qstate._asymmetry

        def spy(m, out=None):
            shapes.append(m.shape)
            return scan(m, out)

        monkeypatch.setattr(qstate, "_asymmetry", spy)
        monkeypatch.setattr(source_op, "_asymmetry", spy)
        op = build_source_1xs(sd, 5)
        assert shapes == [(1, 63, 63)]
        # a caller's matrix is its own core and is scanned in full
        SourceOperator(s1=1, s2=5, d1=3, d2=3, matrix=op.matrix)
        assert shapes == [(1, 63, 63), (1, 729, 729)]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_class_path_matches_kron_reference(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        s = data.draw(st.integers(1, 4), label="s")
        rank = data.draw(st.integers(1, d), label="rank")
        form = data.draw(st.sampled_from(["random", "schmidt form", "equal weights"]),
                         label="form")
        build = data.draw(st.sampled_from([build_source_1xs, build_source_sx1]), label="builder")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if form == "random":
            state = _rank_state(rng, d, rank)
        else:
            lam = rng.random(rank) + 0.01 if form == "schmidt form" else np.ones(rank)
            amp = np.zeros((d, d), dtype=complex)
            amp[np.arange(rank), np.arange(rank)] = np.sqrt(lam / lam.sum())
            state = PureState(amp)
        sd = schmidt_decompose(state)
        assert sd.rank == rank
        op = build(sd, s)
        m = op.matrix
        assert np.array_equal(m, m.conj().T)
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.max(np.abs(m - _kron_source(sd, op.s1, op.s2))) <= 1e-13
        norm = trace_norm(m)
        assert 1.0 - 1e-9 <= norm <= 2.0 * schmidt_sum_squared(sd) - 1.0 + 1e-9

    def _checked_operators(self):
        """The oracle cases plus Hermitian, unit-trace corruptions of them."""
        rng = np.random.default_rng(43)
        for st, op in _oracle_cases():
            yield st, op
            n = op.matrix.shape[0]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            noise = 1e-3 * (g + g.conj().T)
            noise -= np.trace(noise) / n * np.eye(n)
            yield st, SourceOperator(
                s1=op.s1, s2=op.s2, d1=op.d1, d2=op.d2, matrix=op.matrix + noise
            )

    def test_sampled_residual_below_marginal_bound(self):
        # |tr[(M - rho)(X1 (x) X2)]| <= ||M - rho||_1 for unit-norm observables
        for st, op in self._checked_operators():
            psi = st.vector()
            rho = np.outer(psi, psi.conj())
            bound = max(
                float(np.sum(np.abs(np.linalg.eigvalsh(_marginal(op, i, j) - rho))))
                for i in range(op.s1)
                for j in range(op.s2)
            )
            assert verify_dilation(op, st, n_samples=20, seed=5) <= bound + 1e-14

    def test_matches_embed_per_slot_formula(self):
        for st, op in self._checked_operators():
            want = _embed_per_slot_residual(op, st, n_samples=6, seed=9)
            assert abs(verify_dilation(op, st, n_samples=6, seed=9) - want) <= 1e-12

    def test_matches_per_sample_loop(self):
        for st, op in self._checked_operators():
            # 300 samples span two chunks at d1 = d2 = 3
            for n in (20, 300):
                want = _per_sample_residual(op, st, n_samples=n, seed=13)
                assert abs(verify_dilation(op, st, n_samples=n, seed=13) - want) <= 1e-15


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="[Hh]ermitian"):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [
        [[0.5, np.nan], [0.0, 0.5]],  # upper triangle, which eigvalsh never reads
        [[0.5, 0.0], [np.inf, 0.5]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, complex(0.0, -np.inf)]],
    ])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            trace_norm(np.array(bad, dtype=complex))

    def test_hermitian_part_near_float_limit(self):
        # asymmetry 2e-9 is within tolerance; the Hermitian part must not overflow
        assert trace_norm(np.array([[1e308 + 1e-9j, 0.0], [0.0, 0.0]])) == 1e308

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 200), label="n")
        # low ranks, as source operators have, are drawn often
        rank = data.draw(
            st.one_of(st.integers(0, min(n, 40)), st.integers(0, n)), label="rank"
        )
        scale = 10.0 ** data.draw(st.floats(-6.0, 9.0), label="log10 scale")
        spectrum = data.draw(
            st.sampled_from(["gaussian", "degenerate", "tail 1e-9", "tail 1e-14"]),
            label="spectrum",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        eig = rng.standard_normal(rank)
        if spectrum == "degenerate":
            eig = np.where(eig < 0.0, -1.0, 1.0)
        elif spectrum.startswith("tail"):
            eig[rank // 2:] *= float(spectrum.split()[1])
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        v = np.linalg.qr(g)[0] if rank else g
        m = (v * (scale * eig)) @ v.conj().T
        m = (m + m.conj().T) / 2.0
        want = float(np.sum(np.abs(np.linalg.eigvalsh(m))))
        assert abs(trace_norm(m) - want) <= 1e-12 * np.linalg.norm(m)

    def test_ladder_operators_match_dense_and_repeat(self):
        rng = np.random.default_rng(19)
        for d, s, rank in ((2, 7, 2), (3, 4, 3), (4, 3, 4), (8, 2, 8)):
            sd = schmidt_decompose(_rank_state(rng, d, rank))
            for op in (build_source_1xs(sd, s), build_source_sx1(sd, s)):
                norm = trace_norm(op.matrix)
                want = float(np.sum(np.abs(np.linalg.eigvalsh(op.matrix))))
                assert abs(norm - want) <= 1e-12
                assert trace_norm(op.matrix) == norm  # deterministic: bit-identical

    # the sourceop-ladder rungs (perfbench/workloads.py)
    LADDER_RUNGS = ((2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (4, 3), (4, 4), (6, 3),
                    (8, 2))

    def test_ladder_rungs_pin_the_path(self, monkeypatch):
        rng = np.random.default_rng(37)
        checked = []
        check = source_op.check_hermitian

        def check_spy(m, *args, **kwargs):
            checked.append(m.shape[0])
            return check(m, *args, **kwargs)

        monkeypatch.setattr(source_op, "check_hermitian", check_spy)
        sizes = _record_eigvalsh_sizes(monkeypatch)
        untagged = 0
        for d, s in self.LADDER_RUNGS:
            for rank in sorted({2, d}):
                sd = schmidt_decompose(_rank_state(rng, d, rank))
                for build in (build_source_1xs, build_source_sx1):
                    op = build(sd, s)
                    tagged = op.matrix.schmidt is not None
                    assert tagged == source_op._closed_form_holds(sd, op.s1, op.s2)
                    untagged += not tagged
                    del checked[:], sizes[:]
                    trace_norm(op.matrix)
                    if tagged:
                        # its Schmidt data: one real eigvalsh of at most
                        # r + r(r-1)s rows, and nothing else
                        assert checked == []
                        assert len(sizes) == 1
                        assert sizes[0] <= rank + rank * (rank - 1) * s
        # every one of these 32 operators is tagged: schmidt_decompose's
        # bases keep the closed form's error bound far below CLOSED_FORM_RTOL
        assert untagged == 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_built_operators_match_dense_oracle(self, data):
        d, s = data.draw(st.sampled_from(
            [(d, s) for d in range(1, 7) for s in range(1, 10) if d ** (s + 1) <= 1296]),
            label="(d, s)")
        rank = data.draw(st.integers(1, d), label="rank")
        build = data.draw(st.sampled_from([build_source_1xs, build_source_sx1]), label="builder")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sd = schmidt_decompose(_rank_state(rng, d, rank))
        op = build(sd, s)
        assert op.matrix.schmidt is not None
        norm = trace_norm(op.matrix)
        want = _dense_trace_norm(op.matrix)
        assert abs(norm - want) <= 1e-13 * want
        back = source_operator_from_json(source_operator_to_json(op))
        assert np.array_equal(back.matrix.view(np.uint64), op.matrix.view(np.uint64))
        assert abs(trace_norm(back.matrix) - norm) <= 1e-13 * norm
        mirror = {build_source_1xs: build_source_sx1, build_source_sx1: build_source_1xs}[build]
        assert abs(trace_norm(mirror(sd, s).matrix) - norm) <= 1e-14 * norm

    def test_compression_stays_below_one_operator(self):
        sd = schmidt_decompose(_rank_state(np.random.default_rng(23), 6, 6))
        m = np.array(build_source_1xs(sd, 3).matrix)  # a copy takes the dense path
        tracemalloc.start()
        try:
            trace_norm(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes


class TestClosedForm:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_schmidt_trace_norm_properties(self, data):
        # past the size guard: nothing is built, only the closed form's matrix
        r = data.draw(st.integers(1, 4), label="rank")
        logs = data.draw(st.lists(st.floats(-14.0, 0.0), min_size=r, max_size=r), label="log c")
        c = np.sort(np.exp(logs))[::-1]
        c /= np.linalg.norm(c)
        bound = 2.0 * float(np.sum(c)) ** 2 - 1.0
        norms = [source_op._schmidt_trace_norm(c, s) for s in range(1, 31)]
        assert abs(norms[0] - float(np.sum(c * c))) <= 1e-14
        # a partial trace over one copy maps T_(s+1) to T_s, and cannot raise the norm
        for low, high in zip(norms, norms[1:]):
            assert high >= low - 1e-13 * low
        assert max(norms) <= bound + 1e-12

    def test_one_sided_size(self, monkeypatch):
        c = np.sqrt([0.4, 0.3, 0.2, 0.1])
        sizes = _record_eigvalsh_sizes(monkeypatch)
        for s in (1, 2, 3, 30):
            source_op._schmidt_trace_norm(c, s)
        # at s <= 2 the rows no entry reaches are dropped
        assert sizes == [4, 4 + 12, 4 + 12 * 3, 4 + 12 * 30]

    def test_guard_keeps_near_orthonormal_bases_exact(self):
        # Gram deviation 5e-11, within what SchmidtData accepts: the closed
        # form would be off by far more than 1e-13, so the matrix stays untagged
        sd = schmidt_decompose(_rank_state(np.random.default_rng(97), 4, 4))
        left = np.array(sd.left_basis)
        left[0] *= 1.0 + 2.5e-11
        skewed = qstate.SchmidtData(coefficients=sd.coefficients, rank=sd.rank, left_basis=left,
                                    right_basis=sd.right_basis, truncation_tol=sd.truncation_tol)
        op = build_source_1xs(skewed, 4)
        assert op.matrix.schmidt is None
        want = _dense_trace_norm(np.array(op.matrix))
        assert abs(trace_norm(op.matrix) - want) <= 1e-13 * want
        assert abs(source_op._schmidt_trace_norm(sd.coefficients, 4) - want) > 1e-13 * want
        # the same data with its own bases is tagged
        assert build_source_1xs(sd, 4).matrix.schmidt is not None


    def test_guard_is_at_least_the_spectral_bound(self):
        # the guard bounds ||G - I|| by the Frobenius norm: it refuses every
        # basis pair the spectral-norm bound refuses, and sometimes more
        rng = np.random.default_rng(101)
        sd = schmidt_decompose(_rank_state(rng, 4, 4))

        def error_bound(bases, sizes, order):
            growth = sum(s * math.log1p(np.linalg.norm(b @ b.conj().T - np.eye(len(b)), order))
                         for b, s in zip(bases, sizes))
            return math.expm1(growth)

        verdicts = set()
        for _ in range(300):
            bases = [b + 10.0 ** rng.uniform(-16.0, -12.0) * (
                rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
                for b in (sd.left_basis, sd.right_basis)]
            skewed = qstate.SchmidtData(coefficients=sd.coefficients, rank=sd.rank,
                                        left_basis=bases[0], right_basis=bases[1],
                                        truncation_tol=sd.truncation_tol)
            s = int(rng.integers(1, 10))
            sizes = (1, s) if rng.random() < 0.5 else (s, 1)
            spectral, frobenius = (error_bound(bases, sizes, order) for order in (2, "fro"))
            assert frobenius >= spectral
            holds = source_op._closed_form_holds(skewed, *sizes)
            assert holds == (frobenius < source_op.CLOSED_FORM_RTOL)
            assert not (holds and spectral >= source_op.CLOSED_FORM_RTOL)
            verdicts.add((holds, spectral < source_op.CLOSED_FORM_RTOL))
        assert verdicts == {(True, True), (False, True), (False, False)}


def _dense_trace_norm(m):
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


class TestLumpingGuard:
    """Matrices with repeated rows and edge-case entries, which take the dense path."""

    def test_rows_repeat_but_columns_do_not(self):
        rng = np.random.default_rng(71)
        classes = np.repeat(np.arange(4), 4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # the same tiny row added to every row of a class: rows still repeat
        # bit for bit, columns no longer do, and m stays Hermitian to 1e-12
        m = ((g + g.conj().T) / 2.0)[np.ix_(classes, classes)]
        m = m + 1e-12 * rng.standard_normal((4, 16))[classes]
        assert np.array_equal(m[0], m[1])
        want = _dense_trace_norm((m + m.conj().T) / 2.0)
        assert abs(trace_norm(m) - want) <= 1e-13 * want

    def test_nan_in_duplicated_rows(self):
        m = np.full((8, 8), 0.125, dtype=complex)
        m[3:6, :3] = np.nan  # one entry of the repeated 3 x 3 block pattern
        with pytest.raises(ValidationError, match="trace norm input has a NaN or infinite entry"):
            trace_norm(m)

    def test_asymmetry_message_unchanged(self):
        # trace_norm reports check_hermitian's own verdict on its input
        rng = np.random.default_rng(79)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        m = (g + g.conj().T) / 2.0
        m[0, 1] += 1e-3
        messages = []
        for run in (trace_norm, lambda m: qstate.check_hermitian(
                m, "trace norm input", qstate.HERM_ATOL_TRACE_NORM)):
            with pytest.raises(ValidationError) as err:
                run(m)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "max asymmetry" in messages[0]

    @pytest.mark.parametrize("big, finite", [(1e307, True), (2.5e307, False)])
    def test_entries_near_float_limit(self, big, finite):
        # one rank-one block of 8 rows: its eigenvalue 8 * big overflows to
        # an infinite trace norm at 2.5e307, with no warning
        m = np.zeros((16, 16), dtype=complex)
        m[:8, :8] = big
        assert trace_norm(m) == (8.0 * big if finite else np.inf)

    def test_non_contiguous_view(self):
        op = build_source_sx1(schmidt_decompose(_rank_state(np.random.default_rng(83), 2, 2)), 5)
        padded = np.zeros((64, 128), dtype=complex)
        padded[:, ::2] = op.matrix
        view = padded[:, ::2]
        want = _dense_trace_norm(op.matrix)
        assert abs(trace_norm(view) - want) <= 1e-13 * want

    def test_empty(self):
        assert trace_norm(np.zeros((0, 0))) == 0.0


class TestGatheredTag:
    @staticmethod
    def _op(d=3, s=4, rank=3, seed=89):
        return build_source_1xs(schmidt_decompose(_rank_state(np.random.default_rng(seed), d, rank)), s)

    def test_only_the_built_matrix_is_tagged(self):
        op = self._op()
        m = op.matrix
        assert type(m) is source_op._Gathered
        sd = schmidt_decompose(_rank_state(np.random.default_rng(89), 3, 3))
        assert m.schmidt == (tuple(sd.coefficients), 4)
        for other in (m[1:], m[:, :5], m.copy(), m.T, m.real, m.reshape(-1), np.array(m),
                      copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(other) is np.ndarray or other.schmidt is None
        for result in (m + 0, np.abs(m), m * 2.0, m @ m, m.conj()):
            assert type(result) is np.ndarray
        assert type(m.sum()) is np.complex128

    def test_untagged_copy_gives_the_same_bits(self):
        # copies give one another's bits, and the closed form within 1e-13
        op = self._op()
        norm = trace_norm(op.matrix)
        copied = [trace_norm(other) for other in
                  (np.array(op.matrix), op.matrix.copy(), pickle.loads(pickle.dumps(op.matrix)))]
        assert copied[0] == copied[1] == copied[2]
        assert abs(copied[0] - norm) <= 1e-13 * norm

    def test_tag_is_read_only(self):
        # a forged tag would give the two-copy Bell operator (trace norm
        # sqrt(3)) the trace norm 1 of a product state
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        norm = trace_norm(op.matrix)
        with pytest.raises(AttributeError):
            op.matrix.schmidt = source_op._Schmidt((1.0,), 1)
        assert trace_norm(op.matrix) == norm == pytest.approx(math.sqrt(3.0), rel=1e-13)

    def test_non_refining_fingerprint_falls_back(self):
        # |00>: 30 builder classes at (3, 3), but all rows save one are zero;
        # the built matrix takes the closed form, its copies the dense path
        product = PureState(np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
        op = build_source_1xs(schmidt_decompose(product), 3)
        assert len(op.core) == 30
        norm = trace_norm(op.matrix)
        copied = trace_norm(np.array(op.matrix))
        assert abs(copied - norm) <= 1e-13 * norm and copied == 1.0
        assert trace_norm(op.matrix.copy()) == copied


def _ragged_assemblage():
    # site 1 does not stack (2 and 3 elements), so its elements are checked one by one
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return Assemblage(((p0, p1), (p0, p1, np.zeros((2, 2)))), ((p0, p1),))


#: Every array a validated object or a cache of the package holds, by name.
_HELD_ARRAYS = {
    "PureState.amplitudes": lambda: BELL.amplitudes,
    "PureState.vector": lambda: BELL.vector(),
    "DensityOperator.matrix": lambda: DensityOperator(np.eye(2) / 2).matrix,
    "SchmidtData.coefficients": lambda: schmidt_decompose(BELL).coefficients,
    "SchmidtData.left_basis": lambda: schmidt_decompose(BELL).left_basis,
    "SchmidtData.right_basis": lambda: schmidt_decompose(BELL).right_basis,
    "BellFunctional.phi": lambda: chsh_functional().phi,
    "Assemblage.checked_element": lambda: _ragged_assemblage().site1[1][2],
    "Assemblage.stacked_element": lambda: _ragged_assemblage().site2[0][1],
    "Assemblage.checked_setting": lambda: _ragged_assemblage().site1[1],
    "Assemblage.stacked_setting": lambda: _ragged_assemblage().site2[0],
    "seesaw_maximize.site1": lambda: seesaw_maximize(chsh_functional(), BELL, restarts=1)[1].site1[0],
    "seesaw_maximize.site2": lambda: seesaw_maximize(chsh_functional(), BELL, restarts=1)[1].site2[1],
    "two_mode_amplitudes": lambda: two_mode_amplitudes(CoherentFamily(3, 0.5)),
    "coherent_fock_vector": lambda: coherent_fock_vector(-1, fock_truncation(0.5)),
    "gram_schmidt_basis.u1": lambda: gram_schmidt_basis(fock_truncation(0.5))[0],
    "gram_schmidt_basis.u2": lambda: gram_schmidt_basis(fock_truncation(0.5))[1],
    "SourceOperator.caller_matrix": lambda: SourceOperator(
        s1=1, s2=1, d1=2, d2=2, matrix=np.eye(4, dtype=complex) / 4).matrix,
    "SourceOperator.caller_core": lambda: SourceOperator(
        s1=1, s2=1, d1=2, d2=2, matrix=np.eye(4, dtype=complex) / 4).core,
    "SourceOperator.built_matrix": lambda: build_source_1xs(schmidt_decompose(BELL), 2).matrix,
    "SourceOperator.built_core": lambda: build_source_1xs(schmidt_decompose(BELL), 2).core,
    "SourceOperator.built_classes": lambda: build_source_1xs(schmidt_decompose(BELL), 2).classes,
    "SourceOperator.single_matrix": lambda: build_source_1xs(schmidt_decompose(BELL), 1).matrix,
    "_copy_classes.classes": lambda: source_op._copy_classes(3, 2)[0],
    "_copy_classes.reps": lambda: source_op._copy_classes(3, 2)[1],
    **{f"_closed_form_pattern.{i}": lambda i=i: source_op._closed_form_pattern(3, 2)[i]
       for i in range(5)},
    "_seeded_pairs.x1": lambda: source_op._seeded_pairs(2, 3, 4, 0)[0],
    "_seeded_pairs.x2": lambda: source_op._seeded_pairs(2, 3, 4, 0)[1],
}


class TestSourceOperatorValidation:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            SourceOperator(s1=1, s2=1, d1=2, d2=2, matrix=np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="[Hh]ermitian"):
            SourceOperator(s1=1, s2=1, d1=2, d2=2, matrix=m)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(ValidationError, match="NaN or infinite"):
            SourceOperator(s1=1, s2=1, d1=2, d2=2, matrix=m)

    def test_caller_matrix_copied_and_frozen(self):
        m = np.eye(4, dtype=complex) / 4
        op = SourceOperator(s1=1, s2=1, d1=2, d2=2, matrix=m)
        assert not op.matrix.flags.writeable
        m[0, 0] = 7.0
        assert op.matrix[0, 0] == 0.25

    @pytest.mark.parametrize("name", sorted(_HELD_ARRAYS))
    def test_arrays_cannot_be_made_writable(self, name):
        # a written array would no longer be the one that was checked: a
        # gathered matrix its core's gather, coefficients their bound's input
        with pytest.raises(ValueError, match="WRITEABLE"):
            _HELD_ARRAYS[name]().setflags(write=True)

    def test_builder_hands_over_its_matrix(self):
        # one operator is 26.9 MB at d = 6, s = 3; a second copy would double the peak
        sd = schmidt_decompose(_rank_state(np.random.default_rng(29), 6, 6))
        build_source_1xs(sd, 1)
        tracemalloc.start()
        try:
            op = build_source_1xs(sd, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not op.matrix.flags.writeable
        assert peak < 2 * op.matrix.nbytes
        # at s = 1 the class map is the identity: the matrix is a view of
        # the core, handed over with no gather copy (16.8 MB at d = 32)
        sd = schmidt_decompose(_rank_state(np.random.default_rng(29), 32, 2))
        tracemalloc.start()
        try:
            op = build_source_1xs(sd, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.classes is None and np.shares_memory(op.matrix, op.core)
        assert not op.matrix.flags.writeable
        assert peak < 2 * op.matrix.nbytes

    @pytest.mark.parametrize("corruption", ["asymmetric entry", "trace", "NaN"])
    def test_core_verdict_matches_gathered_matrix(self, corruption):
        op = build_source_1xs(schmidt_decompose(_rank_state(np.random.default_rng(59), 3, 3)), 4)
        core = op.core.copy()
        if corruption == "asymmetric entry":
            core[0, 1] += 1e-3
        elif corruption == "trace":
            core[0, 0] += 1e-9  # class 0 holds the one index (0, 0, 0, 0, 0)
        else:
            core[1, 2] = np.nan
        gathered = core.take(op.classes, axis=1).take(op.classes, axis=0)
        messages = []
        for matrix in (source_op._Core(core, op.classes), gathered):
            with pytest.raises(ValidationError) as err:
                SourceOperator(s1=1, s2=4, d1=3, d2=3, matrix=matrix)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("source operator ")

    def test_valid_build_passes_full_scan(self):
        for _, op in _oracle_cases():
            full = qstate.check_hermitian(op.matrix, "source operator", qstate.HERM_ATOL_SOURCE,
                                          unit_trace=True)
            assert full == 0.0


class TestJsonRoundTrip:
    def test_round_trip(self):
        op = build_source_1xs(schmidt_decompose(BELL), 2)
        data = source_operator_to_json(op)
        back = source_operator_from_json(data)
        assert (back.s1, back.s2, back.d1, back.d2) == (1, 2, 2, 2)
        assert_allclose(back.matrix, op.matrix, atol=0)

    def test_missing_key(self):
        op = build_source_1xs(schmidt_decompose(BELL), 1)
        data = source_operator_to_json(op)
        del data["re"]
        with pytest.raises(ValidationError, match="re"):
            source_operator_from_json(data)

    @pytest.mark.parametrize(
        "im",
        [[0, 0, 0, 0], [[0]], [[0], [0], [0], [0]]],
        ids=["row", "scalar", "transposed row"],
    )
    def test_rejects_broadcastable_imaginary_part(self, im):
        data = source_operator_to_json(build_source_1xs(schmidt_decompose(BELL), 1))
        data["im"] = im
        with pytest.raises(ValidationError, match="square and of one shape"):
            source_operator_from_json(data)

    def test_refuses_absurd_sizes_at_once(self):
        data = {"s1": 10**6, "d1": 1000, "s2": 1, "d2": 1, "re": [[1.0]], "im": [[0.0]]}
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"does not match d1\^s1\*d2\^s2 > 1"):
            source_operator_from_json(data)
        assert time.perf_counter() - start < 0.1

    def test_rejects_non_square_parts(self):
        data = source_operator_to_json(build_source_1xs(schmidt_decompose(BELL), 1))
        data["re"] = np.zeros((2, 8)).tolist()
        data["im"] = np.zeros((8, 2)).tolist()
        with pytest.raises(ValidationError, match="square and of one shape"):
            source_operator_from_json(data)
