"""Pure bipartite states: Schmidt analysis and reduced density operators.

States are dense complex amplitude matrices: entry ``(i, j)`` of a
``d1 x d2`` matrix is the coefficient of the product basis vector
``|i> (x) |j>``.  All functions are pure and returned arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError

# Acceptance tolerances: every threshold that decides whether an input is accepted.
NORM_ATOL = 1e-12  #: |squared norm - 1| of a state vector
ORTHO_ATOL = 1e-10  #: Gram deviation and squared-coefficient sum of Schmidt data
HERM_ATOL_DENSITY = 1e-12  #: max entry of |m - m^H| of a density operator
HERM_ATOL_POVM = 1e-10  #: max entry of |m - m^H| of a POVM element
HERM_ATOL_SOURCE = 1e-10  #: max entry of |m - m^H| of a source operator
HERM_ATOL_TRACE_NORM = 1e-8  #: max entry of |m - m^H| of a trace-norm input
TRACE_ATOL = 1e-10  #: |tr m - 1| of a unit-trace operator
PSD_ATOL = 1e-10  #: -(min eigenvalue) of a positive-semidefinite operator
POVM_SUM_ATOL = 1e-10  #: max entry of |sum_a E_a - I| of a POVM
GRAM_DET_ATOL = 1e-12  #: Gram determinant above which two vectors are independent
LHV_ZERO_ATOL = 1e-12  #: |classical bound| from which a violation ratio is defined

#: Singular values at or below this are discarded as numerical zeros.
DEFAULT_TRUNCATION_TOL = 1e-12


def _frozen_complex(a) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


#: Rows per block in :func:`_asymmetry`; bounds its temporaries to a few MB.
_HERM_BLOCK = 256

#: Shift of the Cholesky PSD certificate in :func:`_psd_certified`.
_PSD_SHIFT = PSD_ATOL / 2.0

#: Unit roundoff of double-precision arithmetic.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _asymmetry(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Largest entry of ``|m - m^H|`` per matrix; with ``out``, also ``out = (m + m^H) / 2``.

    ``m`` is one matrix or a stack.  Works on pairs of square blocks, so a
    temporary holds one block of each matrix, and ``out`` may be ``m``; the
    result is exactly Hermitian.  A NaN or infinite entry leaves a NaN or
    infinite gap, which :func:`check_hermitian` refuses.
    """
    n = m.shape[-1]
    worst = np.zeros(m.shape[:-2])
    with np.errstate(invalid="ignore"):  # inf - inf leaves the NaN gap
        for i in range(0, n, _HERM_BLOCK):
            rows = slice(i, i + _HERM_BLOCK)
            for j in range(i, n, _HERM_BLOCK):
                cols = slice(j, j + _HERM_BLOCK)
                upper = m[..., rows, cols]
                lower = m[..., cols, rows].conj().swapaxes(-1, -2)
                worst = np.maximum(worst, np.abs(upper - lower).max(axis=(-2, -1)))
                if out is not None:
                    mean = (upper + lower) / 2.0
                    out[..., rows, cols] = mean
                    out[..., cols, rows] = mean.conj().swapaxes(-1, -2)
    return worst


def _psd_certified(m: np.ndarray, exact: bool) -> bool:
    """Whether one Cholesky proves lambda_min(H) >= -PSD_ATOL for each matrix of ``m``.

    H is a matrix's Hermitian part; ``exact`` says ``m`` is its own.  False
    means only that the certificate does not apply.

    Certificate: if Cholesky of A = H + (PSD_ATOL/2) I runs to completion,
    the computed factor R has R^H R = A + dA with |dA| <= g |R^H| |R|,
    g = gamma_{n+1} = (n+1)u / (1 - (n+1)u) and u the unit roundoff (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3; its
    proof needs only that the factorization completes).  As
    || |R^H| |R| ||_2 <= n ||R^H R||_2, ||dA||_2 <= n g / (1 - n g) ||A||_2,
    which is at most 2 n(n+1) u ||A||_2; the factor 2 also covers complex
    arithmetic.  R^H R is PSD, so lambda_min(H) >= -PSD_ATOL/2 - ||dA||_2.
    The gate bounds ||A||_2 <= ||H||_F + PSD_ATOL/2 for each H and asks
    2 n(n+1) u times that to be at most PSD_ATOL/2, so a completed
    factorization proves lambda_min(H) >= -PSD_ATOL.  The gate is needed
    because no check before this one bounds the norms (a POVM's
    sum-to-identity check comes after it).  Valid POVMs pass it up to about
    n = 128, density operators up to at least n = 470.
    """
    n = m.shape[-1]
    herm = m if exact else (m + m.conj().swapaxes(-1, -2)) / 2.0
    norms = np.linalg.norm(herm, axis=(-2, -1))
    backward_error = 2.0 * n * (n + 1) * _UNIT_ROUNDOFF * (norms + _PSD_SHIFT)
    if not np.all(backward_error <= _PSD_SHIFT):
        return False
    try:
        np.linalg.cholesky(herm + _PSD_SHIFT * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def check_hermitian(m: np.ndarray, what: str, herm_atol: float,
                    unit_trace: bool = False, psd: bool = False) -> float:
    """Validate an ``(n, n)`` matrix or ``(k, n, n)`` stack as Hermitian; return its asymmetry.

    Each matrix's asymmetry, the largest entry of ``|m - m^H|``, must be
    finite and at most ``herm_atol``.  With ``unit_trace``, ``|tr m - 1|``
    may not exceed ``TRACE_ATOL``; with ``psd``, the smallest eigenvalue of
    ``(m + m^H) / 2`` may not fall below ``-PSD_ATOL``, which one Cholesky
    certificate for all matrices (:func:`_psd_certified`) settles where it
    applies and ``eigvalsh`` per matrix otherwise.  The first failing matrix
    raises :class:`ValidationError` for its first failing check (finite,
    Hermitian, trace, PSD) with a message that begins with ``what``, or with
    ``"{what} element {a}"`` for element ``a`` of a stack.
    """
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    stack = m if m.ndim == 3 else m[np.newaxis]
    gaps = _asymmetry(stack)
    worst = float(gaps.max(initial=0.0))  # NaN if any gap is NaN
    certified = psd and worst <= herm_atol and _psd_certified(stack, worst == 0.0)
    if worst <= herm_atol and not unit_trace and certified == psd:
        return worst
    for a, (element, gap) in enumerate(zip(stack, gaps)):
        name = what if m.ndim == 2 else f"{what} element {a}"
        if not np.isfinite(gap):
            raise ValidationError(f"{name} has a NaN or infinite entry")
        if gap > herm_atol:
            raise ValidationError(f"{name} is not Hermitian (max asymmetry {gap:.3e})")
        if unit_trace:
            tr_err = abs(complex(np.trace(element)) - 1.0)
            if tr_err > TRACE_ATOL:
                raise ValidationError(f"{name} trace deviates from 1 by {tr_err:.3e}")
        if psd and not certified:
            lo = float(np.linalg.eigvalsh((element + element.conj().T) / 2.0).min(initial=np.inf))
            if lo < -PSD_ATOL:
                raise ValidationError(
                    f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})"
                )
    return worst


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of a bipartite system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValidationError(
                f"amplitudes must form a 2-d matrix, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ValidationError("amplitudes contain non-finite entries")
        deficit = abs(float(np.sum(np.abs(arr) ** 2)) - 1.0)
        if deficit > NORM_ATOL:
            raise ValidationError(
                "state is not normalized: squared Frobenius norm deviates "
                f"from 1 by {deficit:.3e} (tolerance {NORM_ATOL:.0e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def d1(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def d2(self) -> int:
        return self.amplitudes.shape[1]

    def vector(self) -> np.ndarray:
        """State as a vector on the ``d1*d2`` product space (row-major kron order)."""
        return self.amplitudes.reshape(-1)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2:  # check_hermitian would take a 3-d array for a stack
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        check_hermitian(m, "density matrix", HERM_ATOL_DENSITY, unit_trace=True, psd=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition of a pure bipartite state.

    ``coefficients`` holds the descending Schmidt coefficients sqrt(lambda_k)
    (all strictly above ``truncation_tol``); row ``k`` of ``left_basis`` /
    ``right_basis`` is the k-th orthonormal Schmidt vector on each factor, so

        amplitudes = sum_k coefficients[k] * outer(left_basis[k], right_basis[k])
    """

    coefficients: np.ndarray
    rank: int
    left_basis: np.ndarray
    right_basis: np.ndarray
    truncation_tol: float

    def __post_init__(self) -> None:
        c = np.array(self.coefficients, dtype=float)
        left = _frozen_complex(self.left_basis)
        right = _frozen_complex(self.right_basis)
        if c.ndim != 1 or len(c) != self.rank or self.rank < 1:
            raise ValidationError("coefficient count must equal the rank (>= 1)")
        if left.shape[0] != self.rank or right.shape[0] != self.rank:
            raise ValidationError("basis row count must equal the rank")
        if np.any(c[:-1] < c[1:]):
            raise ValidationError("coefficients must be in descending order")
        if c[-1] <= self.truncation_tol:
            raise ValidationError(
                f"smallest coefficient {c[-1]:.3e} is not above the "
                f"truncation tolerance {self.truncation_tol:.3e}"
            )
        total = float(np.sum(c**2))
        if abs(total - 1.0) > ORTHO_ATOL:
            raise ValidationError(
                f"squared coefficients sum to {total!r}, expected 1 within {ORTHO_ATOL:.0e}"
            )
        for name, basis in (("left", left), ("right", right)):
            gram = basis @ basis.conj().T
            dev = float(np.max(np.abs(gram - np.eye(self.rank))))
            if dev > ORTHO_ATOL:
                raise ValidationError(
                    f"{name} basis is not orthonormal (max Gram deviation {dev:.3e})"
                )
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "left_basis", left)
        object.__setattr__(self, "right_basis", right)


def schmidt_decompose(
    state: PureState, truncation_tol: float = DEFAULT_TRUNCATION_TOL
) -> SchmidtData:
    """Schmidt decomposition of a pure bipartite state via SVD.

    Singular values at or below ``truncation_tol`` are discarded; the kept
    coefficients are *not* renormalized.  Each left Schmidt vector is rotated
    so its first component of magnitude above 1e-12 lies on the real positive
    axis, with the compensating phase on the right vector, making the output
    deterministic away from degenerate coefficients.
    """
    if not 0.0 <= truncation_tol < 1.0:
        raise ValueError(f"truncation_tol must lie in [0, 1), got {truncation_tol!r}")
    u, s, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
    keep = s > truncation_tol
    rank = int(np.count_nonzero(keep))
    coeffs = s[keep].copy()
    left = np.ascontiguousarray(u[:, keep].T)
    right = np.ascontiguousarray(vh[keep, :])
    for k in range(rank):
        sig = np.flatnonzero(np.abs(left[k]) > 1e-12)
        if len(sig) == 0:  # cannot happen for unit vectors; defensive
            continue
        pivot = left[k, sig[0]]
        phase = pivot / abs(pivot)
        left[k] *= np.conj(phase)
        right[k] *= phase
    return SchmidtData(
        coefficients=coeffs,
        rank=rank,
        left_basis=left,
        right_basis=right,
        truncation_tol=truncation_tol,
    )


def reconstruct(schmidt: SchmidtData) -> np.ndarray:
    """Amplitude matrix rebuilt from Schmidt data."""
    return np.einsum(
        "k,ki,kj->ij", schmidt.coefficients, schmidt.left_basis, schmidt.right_basis
    )


def reduced_state(state: PureState, site: int) -> DensityOperator:
    """Reduced density operator on ``site`` (1 or 2) of a pure state."""
    a = state.amplitudes
    if site == 1:
        m = a @ a.conj().T
    elif site == 2:
        m = a.T @ a.conj()
    else:
        raise ValueError(f"site must be 1 or 2, got {site!r}")
    m = (m + m.conj().T) / 2.0  # kill float asymmetry from the product
    return DensityOperator(m)


def schmidt_sum_squared(schmidt: SchmidtData) -> float:
    """Squared sum of Schmidt coefficients, (sum_k sqrt(lambda_k))^2.

    Equals 1 exactly for product states and the Schmidt rank exactly for
    maximally entangled states; always lies in [1, rank].  Rounding can put
    the computed square a few ulps outside that interval (a product state's
    one coefficient is a computed norm), so it is clamped into it.
    """
    return min(max(1.0, float(np.sum(schmidt.coefficients)) ** 2), float(schmidt.rank))


def bell_like_state(v1: np.ndarray, v2: np.ndarray, j: int, k: int) -> PureState:
    """One of the four Bell-type superpositions of two single-system vectors.

    For normalized, linearly independent ``v1``, ``v2`` on the same space the
    amplitude matrix is the normalization of

        v1 v1^T + (-1)^j v2 v2^T    (k = 0)
        v1 v2^T + (-1)^j v2 v1^T    (k = 1)

    where the normalizer equals sqrt(2 (1 ± |<v1|v2>|^2)) for real overlaps.
    The result always has Schmidt rank 2.
    """
    if j not in (0, 1) or k not in (0, 1):
        raise ValueError(f"j and k must each be 0 or 1, got j={j!r}, k={k!r}")
    a = np.asarray(v1, dtype=complex).reshape(-1)
    b = np.asarray(v2, dtype=complex).reshape(-1)
    if a.shape != b.shape or len(a) < 2:
        raise ValueError(
            f"v1 and v2 must be same-length vectors of dimension >= 2, "
            f"got {len(a)} and {len(b)}"
        )
    for name, v in (("v1", a), ("v2", b)):
        deficit = abs(float(np.vdot(v, v).real) - 1.0)
        if deficit > NORM_ATOL:
            raise ValidationError(
                f"{name} is not normalized: squared norm deviates from 1 by {deficit:.3e}"
            )
    overlap = complex(np.vdot(a, b))
    gram_det = 1.0 - abs(overlap) ** 2
    if gram_det <= GRAM_DET_ATOL:
        raise DegeneracyError(
            f"v1 and v2 are (numerically) linearly dependent: "
            f"Gram determinant {gram_det:.3e} <= {GRAM_DET_ATOL:.0e}"
        )
    sign = 1.0 if j == 0 else -1.0
    if k == 0:
        m = np.outer(a, a) + sign * np.outer(b, b)
    else:
        m = np.outer(a, b) + sign * np.outer(b, a)
    return PureState(m / np.linalg.norm(m))
