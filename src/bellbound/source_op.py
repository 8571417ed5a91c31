"""Multi-copy source operators for pure bipartite states.

A source operator on ``H1^(x)s1 (x) H2^(x)s2`` reproduces every two-site
correlation of a pure state when one observable acts on any single copy of
each factor and identity acts elsewhere.  Off-diagonal Schmidt blocks are
carried by tensor powers of the four unnormalized projectors onto
``e_k ± e_k1`` and ``e_k ± i e_k1``, combined so that a single-copy
polarization identity recovers ``|e_k><e_k1|``; the operator is Hermitian and
unit-trace but in general *not* positive.  As every term is a tensor power,
it is built as a small Hermitian core on the copies' symmetric subspace (one
coordinate per multiset of indices), validated there and gathered once.  Its
trace norm depends on the Schmidt coefficients alone, since the Schmidt bases
and the symmetric subspace's embedding are isometries: the built matrix
carries them, and :func:`trace_norm` of it is one real eigenproblem of at
most ``r + r(r-1)s`` rows (:func:`_schmidt_trace_norm`).  Any other matrix
takes one dense ``eigvalsh``.

:func:`verify_dilation` bounds how far an operator is from a dilation of
the state over every pair of unit-norm observables at once: by Hölder's
inequality a two-copy marginal ``M`` gives each pair's correlation to within
``||M - rho||_1 <= sqrt(d1 d2) ||M - rho||_F``, so it returns the largest
right-hand side, with no random draw.  Its ``n_samples`` and ``seed``
keywords, from an earlier sampled check, are accepted and have no effect.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError
from .qstate import (CLOSED_FORM_RTOL, HERM_ATOL_SOURCE, HERM_ATOL_TRACE_NORM, PureState,
                     SchmidtData, _HERM_BLOCK, _asymmetry, check_hermitian, count, readonly)

#: Default cap on the total dimension d1^s1 * d2^s2 of a source operator.
DEFAULT_MAX_DIM = 4096

#: Environment variable overriding the size guard.
MAX_DIM_ENV = "BELLBOUND_MAX_DIM"


def max_tensor_dim() -> int:
    """Active size guard: BELLBOUND_MAX_DIM if set, else 4096."""
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    return count(MAX_DIM_ENV, value)


def _tensor_dim(d1: int, s1: int, d2: int, s2: int, cap: int) -> int | None:
    """``d1^s1 * d2^s2``, or None where it exceeds ``cap``.

    Sizes from JSON or the command line are unbounded, so the lower bound
    ``2^(s (bit_length(d) - 1)) <= d^s`` decides first: only a power of fewer
    than twice ``cap``'s bits is formed.
    """
    low_bits = s1 * (d1.bit_length() - 1) + s2 * (d2.bit_length() - 1)
    if low_bits >= cap.bit_length():
        return None
    n = d1**s1 * d2**s2
    return n if n <= cap else None


class _Schmidt(NamedTuple):  # what the closed-form trace norm of a built matrix needs
    coefficients: tuple[float, ...]
    s: int


class _Core(NamedTuple):  # an operator: matrix[a, b] = core[classes[a], classes[b]]
    core: np.ndarray
    classes: np.ndarray | None = None  # None for the identity map
    schmidt: _Schmidt | None = None  # a built matrix's tag, where the closed form holds


class _Gathered(np.ndarray):
    """A built operator's matrix, tagged with the :class:`_Schmidt` data it was built from.

    Only the array :class:`SourceOperator` tags from its :class:`_Core`
    carries ``schmidt``, a read-only property: NumPy copies no instance
    attribute to a view, copy or unpickled array made from it, which reads
    None, and ufunc and ``@`` results are plain arrays.  It is a view of a
    read-only base, so it cannot be made writable, and it stays the
    operator ``schmidt`` describes.
    """

    _tag: _Schmidt | None = None

    @property
    def schmidt(self) -> _Schmidt | None:
        return self._tag

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = arr.view(np.ndarray)
        return arr[()] if return_scalar else arr


@dataclass(frozen=True)
class SourceOperator:
    """Hermitian unit-trace operator on ``H1^(x)s1 (x) H2^(x)s2``.

    Its trace norm is >= 1 automatically (trace norm >= |trace|); positivity
    is not asserted and genuinely fails for entangled states with several
    copies on one side.  It is a Hermitian ``core`` and a class map with
    ``matrix[a, b] = core[classes[a], classes[b]]``: a builder's core lives on
    the copies' classes (:func:`_copy_classes`) and is validated there, and a
    caller's ``matrix`` is copied and is its own core (``classes`` None).
    ``matrix``, ``core`` and ``classes`` are read-only views of read-only
    arrays, so none of them can be made writable again.  A builder's
    ``matrix`` is a :class:`_Gathered` view (of the core itself where the
    class map is the identity, ``s1 = s2 = 1``) that carries its Schmidt
    coefficients when the closed form holds (:func:`_build_source`), so that :func:`trace_norm` of that
    very array takes the closed form; a caller's matrix takes a dense
    ``eigvalsh``.
    """

    s1: int
    s2: int
    d1: int
    d2: int
    matrix: np.ndarray
    core: np.ndarray = field(init=False, repr=False, compare=False)
    classes: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("s1", "s2", "d1", "d2"):
            object.__setattr__(self, name, count(name, getattr(self, name)))
        built = isinstance(self.matrix, _Core)
        core, classes, tag = self.matrix if built else _Core(np.array(self.matrix, dtype=complex))
        if classes is None:
            n = _tensor_dim(self.d1, self.s1, self.d2, self.s2, core.size)
            if n is None or core.shape != (n, n):
                raise ValidationError(f"matrix shape {core.shape} does not match d1^s1*d2^s2 "
                                      + (f"> {core.size}" if n is None else f"= {n}"))
        # the class map is onto, so the core has the gathered matrix's
        # asymmetry; its trace weighs each class by the indices it holds
        check_hermitian(core, "source operator", HERM_ATOL_SOURCE, unit_trace=True,
                        trace_weights=None if classes is None else np.bincount(classes))
        core = m = readonly(core)
        if classes is not None:
            classes = readonly(classes)
            m = readonly(core.take(classes, axis=1).take(classes, axis=0))
        if built:
            m = m.view(_Gathered)
            m._tag = tag
        for name, value in (("matrix", m), ("core", core), ("classes", classes)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=64)
def _copy_classes(d: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``(classes, reps)`` for ``s`` copies of a ``d``-dimensional factor.

    Index tuples ``(i1, ..., is)`` that permute into one another form one of
    ``C(d+s-1, s)`` classes.  ``classes`` maps the ``d^s`` indices (in
    ``np.kron`` order) to classes and ``reps`` holds each class's sorted
    tuple, so ``v^(x)s[i] = prod(v[reps[classes[i]]])``.
    """
    tuples = np.sort(np.indices((d,) * s).reshape(s, -1).T, axis=1)
    _, first, classes = np.unique(tuples @ d ** np.arange(s), return_index=True,
                                  return_inverse=True)
    return readonly(classes), readonly(tuples[first])


def _w_terms(a: np.ndarray, b: np.ndarray, s: int, diagonal: bool):
    """W blocks of the pairs ``(a[p], b[p])`` as term lists ``(kets, bras, weights)``.

    ``W_p = sum_t weights[t] kets[p, t] bras[p, t]^H`` on the classes of
    :func:`_copy_classes`, every ket a tensor power's monomials.  A diagonal
    block has one term, ``e_k^(x)s``; at ``s = 1`` an off-diagonal one has
    ``|e_k><e_k1|``, else ``(e_k + p e_k1)^(x)s`` with weight ``p / 2^(s+1)``
    for ``p`` in ``±1, ±i``.
    """
    reps = _copy_classes(a.shape[-1], s)[1]
    polarized = s > 1 and not diagonal
    if polarized:
        phases = np.array([1.0, -1.0, 1.0j, -1.0j])
        a, weights = a[:, None] + phases[:, None] * b[:, None], phases / 2 ** (s + 1)
    else:
        a, b, weights = a[:, None], b[:, None], np.ones(1)
    kets = np.prod(a[..., reps], axis=-1)
    return kets, kets if polarized or diagonal else np.prod(b[..., reps], axis=-1), weights


def _closed_form_holds(schmidt: SchmidtData, s1: int, s2: int) -> bool:
    """Whether :func:`_schmidt_trace_norm` is the built operator's trace norm to CLOSED_FORM_RTOL.

    The operator is ``T = V M V^H``, with ``M`` the closed form's matrix and
    ``V`` the Schmidt bases' ``s1``- and ``s2``-fold tensor powers on the
    copies' symmetric subspace.  The nonzero eigenvalues of ``T`` are those
    of ``S M S`` for ``S = (V^H V)^(1/2)``, so by Ostrowski's theorem each is
    ``theta_i lambda_i(M)`` with ``theta_i`` between the extreme eigenvalues
    of ``V^H V``: those of ``G1^(x)s1 (x) G2^(x)s2`` compressed to a
    subspace, for the Gram matrices ``Gi`` of the bases' rows.  So with
    ``delta_i = ||Gi - I||_F``, never below the spectral norm ``||Gi - I||_2``,

        | ||T||_1 - ||M||_1 | <= ((1 + delta_1)^s1 (1 + delta_2)^s2 - 1) ||M||_1
                               <= ((1 + delta)^(s1+s2) - 1) ||M||_1

    for ``delta`` the larger deviation.  True when the middle bound is below
    ``CLOSED_FORM_RTOL``; bases from :func:`schmidt_decompose` deviate by
    about 1e-15, while hand-made ones that :class:`SchmidtData` accepts may
    deviate by up to 1e-10.  The Frobenius norm needs no SVD.  Over 10,800
    random rank-2 and full-rank states at d = 2..8 with up to 9 copies
    (N <= 1296), both builders, the middle bound was 1.75e-14 at worst
    (1.64e-14 in the spectral norm), 57 times below ``CLOSED_FORM_RTOL``.
    """
    growth = 0.0
    for basis, s in ((schmidt.left_basis, s1), (schmidt.right_basis, s2)):
        gram = basis @ basis.conj().T
        growth += s * math.log1p(float(np.linalg.norm(gram - np.eye(len(gram)))))
    return math.expm1(growth) < CLOSED_FORM_RTOL


def _build_source(schmidt: SchmidtData, s1: int, s2: int) -> SourceOperator:
    """``sum_{k,k1} c_k c_k1 W1(k,k1) (x) W2(k,k1)``, exactly Hermitian from half its terms.

    Every term is a tensor power on each side, so the operator is a core on
    the ``D = D1 * D2`` class pairs of :func:`_copy_classes`, gathered once
    to ``N = d1^s1 * d2^s2`` rows (at ``s1 = s2 = 1`` the core is the matrix).
    As ``(f_k1 + p f_k)^(x)s = p^s (f_k + conj(p) f_k1)^(x)s`` for ``|p| = 1``,
    the ``(k1, k)`` terms are adjoints of the ``(k, k1)`` ones, so
    ``T = Z + Z^H = [K w, B conj(w)] [B, K]^H`` for ``Z = K diag(w) B^H`` of
    the ``k <= k1`` terms, the diagonal ones weighted 1/2; only the upper
    block triangle is multiplied out.  Cost: O(D^2 * terms / 2) for the
    products and one O(N^2) gather.  The matrix is tagged with the Schmidt
    coefficients and the copy count when :func:`_closed_form_holds`.
    """
    # Exactly one of s1, s2 is allowed to exceed 1 in the public builders.
    c, left, right = schmidt.coefficients, schmidt.left_basis, schmidt.right_basis
    d1, d2 = left.shape[1], right.shape[1]
    cap = max_tensor_dim()
    n = _tensor_dim(d1, s1, d2, s2, cap)
    if n is None:
        raise CapacityError(f"source operator of total dimension {d1}^{s1} * {d2}^{s2} is "
                            f"above the size guard {cap} (override via {MAX_DIM_ENV})")
    (classes1, reps1), (classes2, reps2) = _copy_classes(d1, s1), _copy_classes(d2, s2)
    size = len(reps1) * len(reps2)
    diag, (k, k1) = np.arange(schmidt.rank), np.triu_indices(schmidt.rank, 1)
    kets, bras, weights = [], [], []
    for ka, kb, cw in ((diag, diag, c * c / 2), (k, k1, c[k] * c[k1])):
        ket1, bra1, w1 = _w_terms(left[ka], left[kb], s1, ka is kb)
        ket2, bra2, w2 = _w_terms(right[ka], right[kb], s2, ka is kb)
        kets.append(np.einsum("pai,pbj->pabij", ket1, ket2).reshape(-1, size))
        bras.append(np.einsum("pai,pbj->pabij", bra1, bra2).reshape(-1, size))
        weights.append((cw[:, None] * np.outer(w1, w2).reshape(-1)).reshape(-1))
    ket, bra, w = np.concatenate(kets), np.concatenate(bras), np.concatenate(weights)
    lhs = np.concatenate([ket * w[:, None], bra * w.conj()[:, None]]).T
    rhs = np.concatenate([bra, ket]).conj()
    core = np.empty((size, size), dtype=complex)
    for i in range(0, size, _HERM_BLOCK):
        rows, after = slice(i, i + _HERM_BLOCK), slice(i + _HERM_BLOCK, None)
        np.matmul(lhs[rows], rhs[:, i:], out=core[rows, i:])
        block = core[rows, rows]
        block[...] = (block + block.conj().T) / 2.0
        core[after, rows] = core[rows, after].conj().T
    classes = None if size == n else (classes1[:, None] * len(reps2) + classes2).reshape(-1)
    tag = _Schmidt(tuple(c.tolist()), max(s1, s2)) if _closed_form_holds(schmidt, s1, s2) else None
    return SourceOperator(s1=s1, s2=s2, d1=d1, d2=d2, matrix=_Core(core, classes, tag))


def build_source_1xs(schmidt: SchmidtData, s2: int) -> SourceOperator:
    """Source operator on ``H1 (x) H2^(x)s2`` (single copy on site 1).

    With ``s2 = 1`` this is exactly the state's density operator.
    """
    return _build_source(schmidt, 1, count("s2", s2))


def build_source_sx1(schmidt: SchmidtData, s1: int) -> SourceOperator:
    """Source operator on ``H1^(x)s1 (x) H2`` (single copy on site 2)."""
    return _build_source(schmidt, count("s1", s1), 1)


@lru_cache(maxsize=64)
def _closed_form_pattern(r: int, s: int) -> tuple:
    """Where :func:`_schmidt_trace_norm` puts its entries at rank ``r`` and ``s`` copies.

    Returns ``(k, k1, rows, cols, weights, size)``: entry
    ``(rows[p, q], cols[p, q])`` of the ``size x size`` matrix ``M`` is
    ``c[k[p]] c[k1[p]] weights[q]``, for the pairs ``k[p] < k1[p]``.
    """
    m, m1 = np.nonzero((np.arange(s + 1) - np.arange(s + 1)[:, None]) % 4 == 1)
    b = np.array([math.comb(s, i) / 2**s for i in range(s + 1)])
    k, k1 = np.triu_indices(r, 1)

    def row(k, k1, m):  # (k, {k^(s-m) k1^m}); m = 0 is k's row (k, {k^s})
        return np.where(m == 0, k, r + (k * (r - 1) + k1 - (k1 > k)) * s + m - 1)

    rows, cols = row(k[:, None], k1[:, None], m), row(k1[:, None], k[:, None], s - m1)
    reached = np.zeros(r + r * (r - 1) * s, dtype=bool)
    reached[:r] = reached[rows] = reached[cols] = True
    label = np.cumsum(reached) - 1
    out = k, k1, label[rows], label[cols], 2.0 * np.sqrt(b[m] * b[m1])
    return tuple(map(readonly, out)) + (int(label[-1]) + 1,)


def _schmidt_trace_norm(c, s: int) -> float:
    """Trace norm of the one-sided ``s``-copy source operator of Schmidt coefficients ``c``.

    In Schmidt coordinates, on the single copy's index ``j`` and an
    orthonormal basis of the copies' symmetric subspace (one vector per
    multiset, weighted by the square root of its multiplicity), the
    operator is a real symmetric ``M``: the polarized term of a pair
    ``k < k1`` is ``sum_p p / 2^(s+1) (e_k + p e_k1)^(x)s (...)^H``, and its
    entry between the multisets ``{k^(s-m) k1^m}`` and ``{k^(s-m') k1^m'}``
    sums ``p^(1+m-m')`` over ``p`` in ``±1, ±i``, which is 4 if
    ``m' - m = 1 (mod 4)`` and 0 otherwise.  So

        M[(k, {k^s}), (k, {k^s})] = c_k^2,
        M[(k, {k^(s-m) k1^m}), (k1, {k^(s-m') k1^m'})] = c_k c_k1 2^(1-s) sqrt(C(s,m) C(s,m'))

    for ``m' - m = 1 (mod 4)``, and its transpose; ``1xs`` and ``sx1`` give
    the same ``M``.  Its rows are ``(k, {k^s})`` and ``(k, {k^(s-m) k1^m})``
    for ``k1 != k`` and ``m`` in ``1..s``, enumerated directly (O(r^2 s^2)
    entries, :func:`_closed_form_pattern`); those no entry reaches (some at
    ``s <= 2``) are dropped, so ``M`` has at most ``r + r(r-1)s`` rows for
    Schmidt rank ``r``.  The binomial weights ``C(s, m) / 2^s`` are integer
    quotients rounded once, so no ``s`` overflows them.
    """
    c = np.asarray(c, dtype=float)
    r = len(c)
    k, k1, rows, cols, weights, size = _closed_form_pattern(r, s)
    out = np.zeros((size, size))
    out[rows, cols] = out[cols, rows] = np.outer(c[k] * c[k1], weights)
    out[np.arange(r), np.arange(r)] = c * c
    return float(np.sum(np.abs(np.linalg.eigvalsh(out))))


def trace_norm(matrix: np.ndarray) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix.

    A built operator's ``matrix`` itself carries its Schmidt coefficients
    and copy count, and gets :func:`_schmidt_trace_norm`: one real
    eigenproblem of at most ``r + r(r-1)s`` rows, exact up to
    ``CLOSED_FORM_RTOL`` relative (:func:`_closed_form_holds`).

    Any other array, a copy or JSON read-back of that matrix included, is
    checked by :func:`check_hermitian` and takes one dense ``eigvalsh`` of
    ``(m + m^H) / 2``; an exactly Hermitian input is not copied.  That is
    O(n^3): on a 2-core host with OpenBLAS, 70 ms for a copy at ``N = 512``
    and 0.4-0.75 s at ``N = 1024-1296``, where the closed form takes under
    0.3 ms.
    """
    if type(matrix) is _Gathered and matrix.schmidt is not None:
        return _schmidt_trace_norm(*matrix.schmidt)
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if check_hermitian(m, "trace norm input", HERM_ATOL_TRACE_NORM) > 0.0:
        m = m.copy()
        _asymmetry(m, out=m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def _two_copy_marginals(T: SourceOperator) -> np.ndarray:
    """The distinct two-copy marginals of a source operator, a fresh ``(P, d1, d2, d1, d2)`` array.

    Marginal ``p = slot1 * s2 + slot2`` is the partial trace of ``T`` over
    every copy except copy ``slot1`` of site 1 and copy ``slot2`` of site 2:
    one einsum over a view of ``T`` whose traced copies before, between and
    after the kept two are merged into three axes.  A caller's matrix has
    ``P = s1 * s2`` of them.  A built operator (``classes`` not None) is
    exactly copy-symmetric, so its last slot pair's marginal, the cheapest to
    take, stands for every pair and ``P = 1``.
    """
    pairs = ([(T.s1 - 1, T.s2 - 1)] if T.classes is not None
             else [(slot1, slot2) for slot1 in range(T.s1) for slot2 in range(T.s2)])
    out = np.empty((len(pairs), T.d1, T.d2, T.d1, T.d2), dtype=complex)
    for p, (slot1, slot2) in enumerate(pairs):
        between = T.d1 ** (T.s1 - 1 - slot1) * T.d2**slot2
        shape = (T.d1**slot1, T.d1, between, T.d2, T.d2 ** (T.s2 - 1 - slot2))
        np.einsum("paqbrpcqer->abce", T.matrix.reshape(shape * 2), out=out[p])
    return out


def verify_dilation(
    T: SourceOperator, state: PureState, n_samples: int = 20, seed: int = 0
) -> float:
    """Bound on the dilation residual of a source operator for a state, over every observable pair.

    ``T`` dilates the state when, on any copy ``slot1`` of site 1 and any
    copy ``slot2`` of site 2, it gives every pair of observables the state's
    correlation.  ``tr[T (X1 on slot1) (x) (X2 on slot2)]`` only sees the
    two-copy marginal ``M_p`` of that slot pair (:func:`_two_copy_marginals`),
    so the residual of one pair is ``|tr[(M_p - rho)(X1 (x) X2)]|`` with
    ``rho = |psi><psi|``.  For ``||X1||, ||X2|| <= 1`` Hölder's inequality
    bounds it by ``||M_p - rho||_1``, and a matrix of ``n = d1 d2`` rows has
    ``||A||_1 <= sqrt(n) ||A||_F``.  So this returns

        sqrt(d1 d2) * max_p ||M_p - rho||_F,

    never below the residual of any observable pair, slot pair included; the
    construction makes it float noise.  No eigenproblem and no random draw.

    ``n_samples`` and ``seed`` are accepted and have no effect: they sized
    and seeded the random observable pairs of an earlier, sampled check, and
    remain so that calls written for it still run.
    """
    if (T.d1, T.d2) != (state.d1, state.d2):
        raise ValueError(
            f"dimension mismatch: source operator has (d1, d2) = ({T.d1}, {T.d2}), "
            f"state has ({state.d1}, {state.d2})"
        )
    psi = state.vector()
    n = psi.size
    diff = _two_copy_marginals(T).reshape(-1, n, n)
    diff -= np.outer(psi, psi.conj())
    return math.sqrt(n) * float(np.max(np.linalg.norm(diff, axis=(-2, -1))))
