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
