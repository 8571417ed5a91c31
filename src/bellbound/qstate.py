"""Pure bipartite states: Schmidt analysis and reduced density operators.

States are dense complex amplitude matrices: entry ``(i, j)`` of a
``d1 x d2`` matrix is the coefficient of the product basis vector
``|i> (x) |j>``.  All functions are pure.  Every array a validated object
holds, here and in the other modules, passes through :func:`readonly`, so it
stays the array that was checked; a fresh result such as :func:`reconstruct`
is the caller's to write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError

# Acceptance tolerances: every threshold that decides whether an input or a value is accepted.
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
VALUE_SLACK = 1e-9  #: float slack on a Bell value, per unit of max(1, sum |phi|) of the functional
CERTIFY_ATOL = 1e-6  #: slack on a violation ratio against the lesser closed-form bound
FOCK_NORM_ATOL = 1e-6  #: | ||amplitudes|| - 1 | a Fock truncation may leave in a family state
PARALLEL_ATOL = 1e-14  #: 1 - |<u|v>|^2 below which two unit vectors are parallel

# Path tolerances: every threshold that decides how a result is computed.
CLOSED_FORM_RTOL = 1e-12  #: relative error of a built source operator's closed-form trace norm
PIVOT_ATOL = 1e-12  #: smallest |entry| of a Schmidt vector that fixes its phase
ZERO_NORM_ATOL = 1e-12  #: operator norm below which a sampled observable is zero (and made I)

#: Singular values at or below this are discarded as numerical zeros.
DEFAULT_TRUNCATION_TOL = 1e-12


def readonly(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that cannot be made writable.

    The view's base is ``a`` made read-only, or a read-only copy where ``a``
    does not own its data (whose owner could be made writable again).  Only
    the view is safe to hand out: an owner can always be made writable again.
    """
    base = a if a.flags.owndata else a.copy()
    base.setflags(write=False)
    return base.view()


#: Rows per block in :func:`_asymmetry`; bounds its temporaries to a few MB.
#: 128 scanned N = 729 to 1296 faster than 256.
_HERM_BLOCK = 128

#: Matrix entries per :func:`check_hermitian` call on a group of POVM
#: settings (``bell._stacked_site``).  2^13 complex entries (128 KiB) keep
#: the call's temporaries small: per job of 4 to 22 settings it beat 2^12,
#: 2^14 and 2^15 at d = 32.  At d = 96 one setting is larger, so each is its
#: own group; four elements a call there cost more per element than one.
_HERM_GROUP = 1 << 13

#: Shift of the Cholesky PSD certificate in :func:`_psd_certified`.
_PSD_SHIFT = PSD_ATOL / 2.0

#: Unit roundoff of double-precision arithmetic.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _asymmetry(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Largest entry of ``|m - m^H|`` per matrix; with ``out``, also ``out = (m + m^H) / 2``.

    ``m`` is one matrix or a stack.  Works on pairs of square blocks, so a
    temporary holds one block of each matrix, and ``out`` may be ``m``; the
    result is exactly Hermitian.  A NaN or infinite entry leaves a NaN or
    infinite gap, and so does a difference that overflows;
    :func:`check_hermitian` refuses both.
    """
    n = m.shape[-1]
    worst = np.zeros(m.shape[:-2])
    for i in range(0, n, _HERM_BLOCK):
        rows = slice(i, i + _HERM_BLOCK)
        for j in range(i, n, _HERM_BLOCK):
            cols = slice(j, j + _HERM_BLOCK)
            upper = m[..., rows, cols]
            lower = m[..., cols, rows].conj().swapaxes(-1, -2)
            worst = np.maximum(worst, np.abs(upper - lower).max(axis=(-2, -1)))
            if out is not None:
                # (upper + lower) / 2 to the bit, without overflow near the float limit
                mean = upper / 2.0 + lower / 2.0
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
    sum-to-identity check bounds them only once its elements are PSD).
    Valid POVMs pass it up to about
    n = 128, density operators up to at least n = 470.  A norm that
    overflows to inf fails the gate; the caller silences that overflow.
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
                    unit_trace: bool = False, psd: bool = False,
                    trace_weights: np.ndarray | None = None) -> float:
    """Validate an ``(n, n)`` matrix or ``(k, n, n)`` stack as Hermitian; return its asymmetry.

    Each matrix's asymmetry, the largest entry of ``|m - m^H|``, must be
    finite and at most ``herm_atol``.  With ``unit_trace``, ``|tr m - 1|``
    may not exceed ``TRACE_ATOL``, where ``tr m`` is
    ``sum_c trace_weights[c] m[c, c]`` if ``trace_weights`` is given; with
    ``psd``, the smallest eigenvalue of ``(m + m^H) / 2`` may not fall below
    ``-PSD_ATOL``, which one Cholesky certificate for all matrices
    (:func:`_psd_certified`) settles where it applies and ``eigvalsh`` per
    matrix otherwise.  The first failing matrix raises
    :class:`ValidationError` for its first failing check (finite, Hermitian,
    trace, PSD) with a message that begins with ``what``, or with
    ``"{what} element {a}"`` for element ``a`` of a stack.
    """
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    stack = m if m.ndim == 3 else m[np.newaxis]
    # inf - inf and overflow near the float limit leave a non-finite gap or
    # gate norm, which the checks below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = _asymmetry(stack)
        worst = float(gaps.max(initial=0.0))  # NaN if any gap is NaN
        certified = psd and worst <= herm_atol and _psd_certified(stack, worst == 0.0)
    if worst <= herm_atol and not unit_trace and certified == psd:
        return worst
    for a, (element, gap) in enumerate(zip(stack, gaps)):
        name = what if m.ndim == 2 else f"{what} element {a}"
        if not np.isfinite(gap) and not np.all(np.isfinite(element)):
            raise ValidationError(f"{name} has a NaN or infinite entry")
        if gap > herm_atol:  # inf where finite entries overflow the difference
            raise ValidationError(f"{name} is not Hermitian (max asymmetry {gap:.3e})")
        if unit_trace:
            tr = (np.trace(element) if trace_weights is None
                  else trace_weights @ np.diagonal(element))
            tr_err = abs(complex(tr) - 1.0)
            if tr_err > TRACE_ATOL:
                raise ValidationError(f"{name} trace deviates from 1 by {tr_err:.3e}")
        if psd and not certified:
            herm = element if gap == 0.0 else (element + element.conj().T) / 2.0
            lo = float(np.linalg.eigvalsh(herm).min(initial=np.inf))
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
        object.__setattr__(self, "amplitudes", readonly(arr))

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
        object.__setattr__(self, "matrix", readonly(m))

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
        left = np.array(self.left_basis, dtype=complex)
        right = np.array(self.right_basis, dtype=complex)
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
        for name, value in (("coefficients", c), ("left_basis", left), ("right_basis", right)):
            object.__setattr__(self, name, readonly(value))


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
    # every row is a unit vector, so it has an entry of size >= 1/sqrt(d1)
    pivots = left[np.arange(rank), (np.abs(left) > PIVOT_ATOL).argmax(axis=1)]
    # np.hypot rounds as the scalar abs(pivot) does; np.abs of a complex
    # array need not, so the bases would differ in the last bit
    phases = pivots / np.hypot(pivots.real, pivots.imag)
    left *= phases.conj()[:, None]
    right *= phases[:, None]
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
