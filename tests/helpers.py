"""Shared builders and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from bellbound import BellFunctional, OutcomeSet, PureState

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def random_pure_state(rng, d1, d2):
    g = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    return PureState(g / np.linalg.norm(g))


def random_unit_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_povm(rng, d, m):
    """Random full-rank POVM: normalized Wishart blocks."""
    blocks = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ b @ inv_sqrt for b in blocks]


def random_projective_qubit_povm(rng):
    """Rank-1 projective pair from a random Bloch direction."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    obs = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    eye = np.eye(2)
    return [(eye + obs) / 2, (eye - obs) / 2]


def random_functional(rng, s1, s2, labels1=(1.0, -1.0), labels2=(1.0, -1.0),
                      integer_valued=False):
    shape = (s1, s2, len(labels1), len(labels2))
    if integer_valued:
        phi = rng.integers(-9, 10, size=shape).astype(float)
    else:
        phi = rng.standard_normal(shape)
    return BellFunctional(OutcomeSet(labels1), OutcomeSet(labels2), phi)


def separable_functional(rng, s1, s2):
    """Binary functional phi[s,t,a,b] = g[s,a] + h[t,b] with integer g and h.

    Its classical extrema have a closed form: site 1's outcome for setting s
    enters only g[s, .] and site 2's for t only h[t, .], so
    b_sup = s2 * sum_s max_a g + s1 * sum_t max_b h, and b_inf likewise.
    Returns (g, h, functional).
    """
    g = rng.integers(-9, 10, size=(s1, 2)).astype(float)
    h = rng.integers(-9, 10, size=(s2, 2)).astype(float)
    phi = g[:, None, :, None] + h[None, :, None, :]
    labels = OutcomeSet((1.0, -1.0))
    return g, h, BellFunctional(labels, labels, phi)


def brute_force_extrema(f):
    """Naive double loop over all strategy pairs (independent of the library)."""
    best_sup = -math.inf
    best_inf = math.inf
    for a in itertools.product(range(f.outcomes1.size), repeat=f.s1):
        for b in itertools.product(range(f.outcomes2.size), repeat=f.s2):
            total = 0.0
            for s in range(f.s1):
                for t in range(f.s2):
                    total += f.phi[s, t, a[s], b[t]]
            best_sup = max(best_sup, total)
            best_inf = min(best_inf, total)
    return best_sup, best_inf


def brute_force_enumeration(phi):
    """Extrema of a (s_out, m_out, s_in, m_in) tensor over all strategy pairs.

    Plain loops, the inner site's strategies in the outer loop and the outer
    site's in the inner loop, each in lexicographic order; the first pair
    reaching an extremum is its witness.  A pair's value adds, for each outer
    setting, its weights over the inner settings from left to right, then
    adds those per-setting sums with ``np.sum``: the order of
    ``_enumerate_extrema``, so extrema compare bit for bit.  Returns
    (sup, sup_inner, sup_outer, inf, inf_inner, inf_outer).
    """
    s_out, m_out, s_in, m_in = phi.shape
    best = [-math.inf, None, None, math.inf, None, None]
    for inner in itertools.product(range(m_in), repeat=s_in):
        for outer in itertools.product(range(m_out), repeat=s_out):
            rows = []
            for s in range(s_out):
                total = phi[s, outer[s], 0, inner[0]]
                for t in range(1, s_in):
                    total = total + phi[s, outer[s], t, inner[t]]
                rows.append(total)
            value = float(np.sum(np.array(rows)))
            if value > best[0]:
                best[:3] = value, inner, outer
            if value < best[3]:
                best[3:] = value, inner, outer
    return tuple(best)


def brute_force_lhv(f):
    """(b_sup, argmax, b_inf, argmin) of a functional over all n1*n2 strategy pairs.

    Like ``lhv_extrema``, the site with fewer strategies (site 2 on a tie)
    is the inner site of :func:`brute_force_enumeration`.
    """
    if f.outcomes2.size**f.s2 <= f.outcomes1.size**f.s1:
        sup, b_max, a_max, inf, b_min, a_min = brute_force_enumeration(
            f.phi.transpose(0, 2, 1, 3))
    else:
        sup, a_max, b_max, inf, a_min, b_min = brute_force_enumeration(
            f.phi.transpose(1, 3, 0, 2))
    return sup, (a_max, b_max), inf, (a_min, b_min)


def reference_schmidt_bases(amplitudes, truncation_tol=1e-12):
    """Schmidt coefficients and bases by SVD with one phase fix per vector, in a loop.

    Each kept left vector is rotated so its first entry of magnitude above
    1e-12 is real and positive, with the compensating phase on the right
    vector; a vector with no such entry is left as it is.  Returns
    (coefficients, left_basis, right_basis) as ``schmidt_decompose`` should.
    """
    u, s, vh = np.linalg.svd(amplitudes, full_matrices=False)
    keep = s > truncation_tol
    left = np.ascontiguousarray(u[:, keep].T)
    right = np.ascontiguousarray(vh[keep, :])
    for k in range(len(left)):
        sig = np.flatnonzero(np.abs(left[k]) > 1e-12)
        if len(sig) == 0:
            continue
        pivot = left[k, sig[0]]
        phase = pivot / abs(pivot)
        left[k] *= np.conj(phase)
        right[k] *= phase
    return s[keep], left, right


def w_block(e_k, e_k1, s):
    """The ``d^s x d^s`` block carrying ``|e_k><e_k1|`` across ``s`` copies of one factor.

    The builder's term list (``source_op._w_terms``) multiplied out on the
    copies' classes and gathered to every index tuple; for ``e_k == e_k1``
    it is the tensor power of the projector onto ``e_k``.
    """
    from bellbound import source_op

    a = np.asarray(e_k, dtype=complex).reshape(1, -1)
    b = np.asarray(e_k1, dtype=complex).reshape(1, -1)
    kets, bras, weights = source_op._w_terms(a, b, s, np.array_equal(a, b))
    classes = source_op._copy_classes(a.shape[1], s)[0]
    return ((kets[0].T * weights) @ bras[0].conj()).take(classes, axis=1).take(classes, axis=0)


def reference_assemblage(site1, site2):
    """Per-element POVM validation, written out without the library's checks.

    Each element in turn must be a square matrix with finite entries, whose
    largest entry of ``|m - m^H|`` is at most ``HERM_ATOL_POVM``, whose
    Hermitian part has no ``eigvalsh`` eigenvalue below ``-PSD_ATOL``, and
    whose size is the site's; then each setting must sum to the identity.
    Returns the validated sites as tuples of read-only arrays, or raises the
    first failure with the message ``Assemblage`` gives.
    """
    from bellbound import ValidationError
    from bellbound.qstate import HERM_ATOL_POVM, POVM_SUM_ATOL, PSD_ATOL

    frozen = []
    for site_no, povms in ((1, site1), (2, site2)):
        if len(povms) < 1:
            raise ValidationError(f"site {site_no} needs at least one POVM")
        dim = None
        site_out = []
        for s, povm in enumerate(povms):
            if len(povm) < 2:
                raise ValidationError(f"site {site_no} setting {s}: POVM needs >= 2 elements")
            elements = []
            for a, element in enumerate(povm):
                m = np.array(element, dtype=complex)
                what = f"site {site_no} setting {s} element {a}"
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise ValidationError(f"{what} must be square, got shape {m.shape}")
                if not np.all(np.isfinite(m)):
                    raise ValidationError(f"{what} has a NaN or infinite entry")
                gap = float(np.max(np.abs(m - m.conj().T), initial=0.0))
                if gap > HERM_ATOL_POVM:
                    raise ValidationError(f"{what} is not Hermitian (max asymmetry {gap:.3e})")
                lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min(initial=np.inf))
                if lo < -PSD_ATOL:
                    raise ValidationError(
                        f"{what} is not positive semidefinite (min eigenvalue {lo:.3e})"
                    )
                if dim is None:
                    dim = m.shape[0]
                elif m.shape[0] != dim:
                    raise ValidationError(f"{what}: dimension {m.shape[0]} differs from {dim}")
                m.setflags(write=False)
                elements.append(m)
            total = sum(elements)
            dev = float(np.max(np.abs(total - np.eye(dim))))
            if dev > POVM_SUM_ATOL:
                raise ValidationError(
                    f"site {site_no} setting {s}: POVM elements do not sum to "
                    f"identity (max deviation {dev:.3e})"
                )
            site_out.append(tuple(elements))
        frozen.append(tuple(site_out))
    return tuple(frozen)


def reference_dilation_residual(op, state, n_samples, seed):
    """``verify_dilation`` drawing its observable pairs afresh on every call.

    The loop of the library before it reused the pairs of an ``int`` seed:
    one new ``default_rng(seed)`` a call, streamed chunk by chunk, and the
    same contractions, so residuals compare bit for bit.
    """
    from bellbound import source_op

    amp = state.amplitudes
    marginals = source_op._two_copy_marginals(op)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x1, x2 in source_op._unit_hermitian_pairs(rng, op.d1, op.d2, n_samples):
        want = np.einsum("nal,al->n", x1 @ amp @ x2.swapaxes(-1, -2), amp.conj())
        got = np.einsum("pbdn,ndb->np", np.tensordot(marginals, x1, ([1, 3], [2, 1])), x2)
        worst = max(worst, float(np.max(np.abs(got - want[:, None]))))
    return worst


def reference_coherent_fock_vector(sign, trunc):
    """``coherent_fock_vector`` written out entry by entry.

    The library forms the running product with one ``np.cumprod``; this is
    the per-entry loop it replaced, the same multiplications in the same
    order, kept to compare bit for bit.
    """
    alpha = trunc.alpha
    vec = np.empty(trunc.cutoff + 1, dtype=float)
    amp = math.exp(-(alpha * alpha) / 2.0)
    for m in range(trunc.cutoff + 1):
        vec[m] = amp
        amp *= sign * alpha / math.sqrt(m + 1)
    return (vec / float(np.linalg.norm(vec))).astype(complex)


def reference_fock_state(fam, trunc):
    """Amplitudes of ``fock_state`` as its four explicit family branches built them.

    The library builds them from one ``(sign, crossed)`` table; this is the
    branch-per-family form it replaced, kept to compare bit for bit.
    """
    from bellbound import coherent_fock_vector

    p = coherent_fock_vector(1, trunc)
    m = coherent_fock_vector(-1, trunc)
    x2 = fam.overlap_x ** 2
    if fam.family == 1:
        raw = np.outer(p, p) + np.outer(m, m)
        denom = math.sqrt(2.0 * (1.0 + x2))
    elif fam.family == 2:
        raw = np.outer(p, m) + np.outer(m, p)
        denom = math.sqrt(2.0 * (1.0 + x2))
    elif fam.family == 3:
        raw = np.outer(p, p) - np.outer(m, m)
        denom = math.sqrt(2.0 * (1.0 - x2))
    else:
        raw = np.outer(p, m) - np.outer(m, p)
        denom = math.sqrt(2.0 * (1.0 - x2))
    amp = raw / denom
    return PureState(amp / np.linalg.norm(amp)).amplitudes


def count_lapack(monkeypatch):
    """Count calls of ``np.linalg.cholesky`` and ``np.linalg.eigvalsh`` from now on."""
    calls = {"cholesky": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def chsh_max_two_qubit(state):
    """Largest CHSH value of a two-qubit pure state (correlation-matrix form).

    Independent oracle: 2 sqrt(t1^2 + t2^2) with t1 >= t2 the two largest
    singular values of the 3x3 correlation matrix T_ij = <sigma_i (x) sigma_j>.
    """
    psi = state.amplitudes.reshape(-1)
    rho = np.outer(psi, psi.conj())
    t = np.empty((3, 3))
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = np.trace(rho @ np.kron(si, sj)).real
    sv = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


def observable_assemblage(observables1, observables2, labels=(1.0, -1.0)):
    """POVM assemblage from lists of ±1 observables (outcome order = labels)."""
    from bellbound import Assemblage

    def povms(obs_list):
        d = obs_list[0].shape[0]
        eye = np.eye(d)
        return tuple(tuple((eye + lab * o) / 2.0 for lab in labels) for o in obs_list)

    return Assemblage(site1=povms(observables1), site2=povms(observables2))
