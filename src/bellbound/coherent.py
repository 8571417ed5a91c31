"""Entangled two-mode superpositions of opposite-amplitude coherent states.

Four one-parameter families are covered, indexed 1..4 with real amplitude
``alpha > 0`` and overlap ``x = <alpha|-alpha> = exp(-2 alpha^2)``:

    1:  |a>|a> + |-a>|-a>     3:  |a>|a> - |-a>|-a>
    2:  |a>|-a> + |-a>|a>     4:  |a>|-a> - |-a>|a>

Plus-sign families normalize by sqrt(2 (1 + x^2)), minus-sign families by
sqrt(2 (1 - x^2)).  Everything has closed forms in the orthonormal two-mode
basis; Fock-space truncations exist to cross-check those forms numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneracyError
from .qstate import FOCK_NORM_ATOL, PARALLEL_ATOL, PureState, count, positive_real, readonly

#: Default bound on the coherent-state mass left above an automatic cutoff.
DEFAULT_TAIL_TOL = 1e-14

#: Automatic cutoffs never go below this photon number.
MIN_AUTO_CUTOFF = 16

#: Automatic cutoffs never go above this photon number; past it the request
#: is a capacity error.  At the default tail tolerance that admits alpha up to
#: about 28.25, so the Fock amplitudes, which start at exp(-alpha^2/2), stay
#: far from underflow.  :class:`FockTruncation` refuses any cutoff above it,
#: since a family state's amplitude matrix grows with the cutoff squared.
MAX_AUTO_CUTOFF = 1024

#: Most samples :func:`bound_curve` takes; past it the request is a capacity
#: error.  A million-step curve took 0.26 s in process, and 1.3 s and 285 MB
#: peak as ``coherent-curve`` on a 2-vCPU machine; memory grows linearly with
#: the step count.
MAX_CURVE_STEPS = 10**6

#: ``(sign, crossed)`` of each family: ``|a>|b> + sign |-a>|-b>`` with
#: ``b = a`` uncrossed and ``b = -a`` crossed.
_FAMILIES = {1: (1.0, False), 2: (1.0, True), 3: (-1.0, False), 4: (-1.0, True)}


@dataclass(frozen=True)
class CoherentFamily:
    """One member of the four two-mode coherent superposition families."""

    family: int
    alpha: float

    def __post_init__(self) -> None:
        family = count("family", self.family)
        if family not in _FAMILIES:
            raise ValueError(f"family must be 1, 2, 3 or 4, got {self.family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", positive_real("alpha", self.alpha))

    @property
    def overlap_x(self) -> float:
        """Coherent overlap x = exp(-2 alpha^2); 0 where alpha^2 overflows."""
        return math.exp(-2.0 * (self.alpha * self.alpha))


def _capped_cutoff(cutoff) -> int:
    """``cutoff`` as a count, refused with a capacity error above ``MAX_AUTO_CUTOFF``."""
    cutoff = count("cutoff", cutoff)
    if cutoff > MAX_AUTO_CUTOFF:
        raise CapacityError(
            f"Fock cutoff {cutoff} is above the largest supported cutoff "
            f"{MAX_AUTO_CUTOFF}; the amplitude matrix grows with its square"
        )
    return cutoff


@dataclass(frozen=True)
class FockTruncation:
    """Photon-number cutoff, at most 1024, with its realized and declared tail bounds."""

    cutoff: int
    tail_bound: float
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff", _capped_cutoff(self.cutoff))
        if self.tail_bound > self.tail_tol:
            raise CapacityError(
                f"cutoff {self.cutoff} leaves tail mass {self.tail_bound:.3e}, "
                f"above the requested tolerance {self.tail_tol:.0e}"
            )


def _poisson_tail(alpha: float, cutoff: int) -> float:
    """Mass of the Poisson(alpha^2) distribution strictly above ``cutoff``.

    Each term ``exp(m log(lam) - lam - log m!)`` is formed in log space with
    ``math.lgamma``, so nothing underflows before it is negligible however
    large alpha is.  Below the mean the head is summed and subtracted from 1;
    above it the terms fall geometrically and are summed until they stop
    adding to the total.  Where ``alpha^2`` underflows to 0 the tail is 0,
    and where it overflows to infinity the tail is 1.
    """
    lam = alpha * alpha
    if lam == 0.0:
        return 0.0
    if lam == math.inf:
        return 1.0
    log_lam = math.log(lam)

    def term(m: int) -> float:
        return math.exp(m * log_lam - lam - math.lgamma(m + 1))

    if cutoff < lam:
        return max(0.0, 1.0 - math.fsum(term(m) for m in range(cutoff + 1)))
    total = 0.0
    m = cutoff + 1
    t = term(m)
    while t > total * 1e-17:
        total += t
        m += 1
        t = term(m)
    return total


def fock_truncation(
    alpha: float, cutoff: int | str = "auto", tail_tol: float = DEFAULT_TAIL_TOL
) -> FockTruncation:
    """Truncation for ``|±alpha>`` leaving at most ``tail_tol`` mass above it.

    ``cutoff="auto"`` picks the smallest cutoff (at least 16) meeting the
    tolerance, and raises a capacity error when that is above 1024; an
    explicit integer cutoff above 1024 raises one before its tail is summed,
    and so does one that misses the tolerance.
    """
    alpha = positive_real("alpha", alpha)
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    if cutoff == "auto":
        if _poisson_tail(alpha, MAX_AUTO_CUTOFF) >= tail_tol:
            raise CapacityError(
                f"alpha={alpha} needs a Fock cutoff above {MAX_AUTO_CUTOFF} to leave "
                f"tail mass below {tail_tol:.0e}"
            )
        # the tail falls as the cutoff grows: bisect for the first one below tail_tol
        lo, hi = MIN_AUTO_CUTOFF, MAX_AUTO_CUTOFF
        while lo < hi:
            mid = (lo + hi) // 2
            if _poisson_tail(alpha, mid) < tail_tol:
                hi = mid
            else:
                lo = mid + 1
        return FockTruncation(cutoff=lo, tail_bound=_poisson_tail(alpha, lo), tail_tol=tail_tol)
    cutoff = _capped_cutoff(cutoff)
    return FockTruncation(
        cutoff=cutoff, tail_bound=_poisson_tail(alpha, cutoff), tail_tol=tail_tol
    )


def coherent_fock_vector(sign: int, alpha: float, trunc: FockTruncation) -> np.ndarray:
    """Truncated, renormalized Fock expansion of ``|sign * alpha>``.

    Entry m is proportional to (sign*alpha)^m exp(-alpha^2/2) / sqrt(m!) for
    m = 0..cutoff; the renormalization factor differs from 1 by less than the
    truncation's tail tolerance, else a capacity error is raised.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    alpha = positive_real("alpha", alpha)
    n = trunc.cutoff
    vec = np.empty(n + 1, dtype=float)
    amp = math.exp(-(alpha * alpha) / 2.0)
    for m in range(n + 1):
        vec[m] = amp
        amp *= sign * alpha / math.sqrt(m + 1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise CapacityError(
            f"the Fock amplitudes of alpha={alpha} underflow: exp(-alpha^2/2) is "
            "below the smallest double"
        )
    if abs(1.0 / norm - 1.0) >= trunc.tail_tol:
        raise CapacityError(
            f"cutoff {n} is too small for alpha={alpha}: renormalization factor "
            f"deviates from 1 by {abs(1.0 / norm - 1.0):.3e} "
            f"(tail tolerance {trunc.tail_tol:.0e})"
        )
    return readonly((vec / norm).astype(complex))


def _check_not_parallel(alpha: float, x: float) -> None:
    """Refuse ``|alpha>`` and ``|-alpha>`` of overlap ``x`` with ``1 - x^2`` below PARALLEL_ATOL."""
    if 1.0 - x * x < PARALLEL_ATOL:
        raise DegeneracyError(
            f"|alpha> and |-alpha> are numerically parallel at alpha={alpha!r} "
            f"(1 - x^2 = {1.0 - x * x:.3e})"
        )


def gram_schmidt_basis(alpha: float, trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (u1, u2) spanning {|alpha>, |-alpha>} in Fock space.

    u1 = |alpha> and u2 = (|-alpha> - x |alpha>) / sqrt(1 - x^2) with
    x = exp(-2 alpha^2), so that |-alpha> = x u1 + sqrt(1 - x^2) u2.
    """
    x = math.exp(-2.0 * alpha * alpha)
    _check_not_parallel(alpha, x)
    u1 = coherent_fock_vector(1, alpha, trunc)
    minus = coherent_fock_vector(-1, alpha, trunc)
    return u1, readonly((minus - x * u1) / math.sqrt(1.0 - x * x))


def two_mode_amplitudes(fam: CoherentFamily) -> np.ndarray:
    """Exact, read-only 2x2 amplitude matrix of a family state in the (u1, u2) basis."""
    x = fam.overlap_x
    c = math.sqrt(1.0 - x * x)
    if fam.family == 1:
        m = np.array([[1.0 + x * x, x * c], [x * c, 1.0 - x * x]])
        denom = math.sqrt(2.0 * (1.0 + x * x))
    elif fam.family == 2:
        m = np.array([[2.0 * x, c], [c, 0.0]])
        denom = math.sqrt(2.0 * (1.0 + x * x))
    elif fam.family == 3:  # [[y, -xc], [-xc, -y]] / sqrt(2y) for y = c^2, finite at c = 0
        m = np.array([[c, -x], [-x, -c]])
        denom = math.sqrt(2.0)
    else:
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        denom = math.sqrt(2.0)
    return readonly((m / denom).astype(complex))


def reduced_eigenvalues(fam: CoherentFamily) -> tuple[float, float]:
    """Closed-form eigenvalue pair of either reduced state, summing to 1.

    Families 1 and 2: (1 ± x)^2 / (2 (1 + x^2)) with x = exp(-2 alpha^2);
    families 3 and 4: exactly (1/2, 1/2).
    """
    if _FAMILIES[fam.family][0] < 0:
        return (0.5, 0.5)
    x = fam.overlap_x
    denom = 2.0 * (1.0 + x * x)
    return ((1.0 + x) ** 2 / denom, (1.0 - x) ** 2 / denom)


def _violation_bound(family: int, x):
    """(3 - x^2) / (1 + x^2) for families 1 and 2, exactly 3 (x = 0) for 3 and 4.

    ``x`` is the overlap, a float or an array of them.
    """
    x2 = x ** 2 if _FAMILIES[family][0] > 0 else 0.0 * x
    return (3.0 - x2) / (1.0 + x2)


def coherent_violation_bound(fam: CoherentFamily) -> float:
    """Largest violation ratio attainable by a family state, any scenario.

    (3 - x^2) / (1 + x^2) for families 1 and 2 (x = exp(-2 alpha^2)), and
    exactly 3 for families 3 and 4; climbs from 1 to 3 as alpha grows.
    """
    return _violation_bound(fam.family, fam.overlap_x)


def fock_state(fam: CoherentFamily, trunc: FockTruncation) -> PureState:
    """Family state as a truncated two-mode Fock amplitude matrix.

    Built from the truncated coherent vectors ``p = |alpha>`` and
    ``m = |-alpha>`` as ``outer(p, a) + sign outer(m, b)``, with ``(a, b)``
    ``(m, p)`` for a crossed family and ``(p, m)`` otherwise, over the
    closed-form normalization ``sqrt(2 (1 + sign x^2))``; then renormalized
    exactly.  The residual must stay below ``FOCK_NORM_ATOL`` or the cutoff
    is deemed insufficient; a minus-sign family's is measured against
    ``sqrt(-2 expm1(-4 alpha^2))``, as ``1 - x^2`` cancels at small alpha.  A
    minus-sign family whose normalization vanishes, as ``|alpha>`` and
    ``|-alpha>`` are numerically parallel, is a degeneracy error.
    """
    sign, crossed = _FAMILIES[fam.family]
    if sign < 0:
        _check_not_parallel(fam.alpha, fam.overlap_x)
    p = coherent_fock_vector(1, fam.alpha, trunc)
    m = coherent_fock_vector(-1, fam.alpha, trunc)
    a, b = (m, p) if crossed else (p, m)
    denom = math.sqrt(2.0 * (1.0 + sign * fam.overlap_x ** 2))
    amp = (np.outer(p, a) + sign * np.outer(m, b)) / denom
    exact = denom if sign > 0 else math.sqrt(-2.0 * math.expm1(-4.0 * fam.alpha * fam.alpha))
    residual = abs(float(np.linalg.norm(amp)) * (denom / exact) - 1.0)
    if residual > FOCK_NORM_ATOL:
        raise CapacityError(
            f"cutoff {trunc.cutoff} distorts the family normalization by "
            f"{residual:.3e}; increase the cutoff"
        )
    return PureState(amp / np.linalg.norm(amp))


def bell_limit_fidelity(fam: int, alpha: float, trunc: FockTruncation) -> float:
    """Squared overlap of a minus-sign family state with its single-photon Bell limit.

    Family 3 is compared against (|1,0> + |0,1>)/sqrt(2) and family 4 against
    (|1,0> - |0,1>)/sqrt(2), discarding the global sign; as alpha -> 0 the
    fidelity tends to 1 with closed form [2 alpha e^(-alpha^2) / sqrt(1 - e^(-4 alpha^2))]^2.
    """
    family = CoherentFamily(fam, alpha)
    sign, crossed = _FAMILIES[family.family]
    if sign > 0:
        raise ValueError(f"Bell-limit fidelity applies to families 3 and 4 only, got {fam}")
    amp = fock_state(family, trunc).amplitudes
    overlap = (amp[1, 0] + (-1.0 if crossed else 1.0) * amp[0, 1]) / math.sqrt(2.0)
    return float(abs(overlap) ** 2)


def bound_curve(
    fam_family: int, alpha_min: float, alpha_max: float, steps: int
) -> list[tuple[float, float]]:
    """Violation-bound samples (alpha, bound) on a uniform alpha grid, evaluated at once.

    Where ``alpha^2`` overflows, x is 0 and the bound 3, as in ``overlap_x``.
    """
    steps = count("steps", steps, least=2)
    if steps > MAX_CURVE_STEPS:
        raise CapacityError(
            f"curve of {steps} steps exceeds the cap of {MAX_CURVE_STEPS} steps"
        )
    fam = CoherentFamily(fam_family, alpha_min)
    alpha_max = positive_real("alpha_max", alpha_max)
    if not fam.alpha < alpha_max:
        raise ValueError(f"need alpha_min < alpha_max, got {alpha_min!r}, {alpha_max!r}")
    grid = np.linspace(fam.alpha, alpha_max, steps)
    with np.errstate(over="ignore"):
        x = np.exp(-2.0 * (grid * grid))
    return list(zip(grid.tolist(), _violation_bound(fam.family, x).tolist()))
