"""Closed-form upper bounds on Bell-violation ratios of pure states.

All bounds cap the ratio |quantum value| / |classical extremum| over every
Bell functional in the given scenario; each is >= 1 and monotone
nondecreasing in the setting counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qstate import SchmidtData, count, schmidt_sum_squared

#: First-class marker for an infinite Hilbert-space dimension.
INFINITE = math.inf


def _check_extent(name: str, value) -> int | float:
    """Validate a dimension / setting count: ``INFINITE`` or a count (``qstate.count``)."""
    return INFINITE if value == INFINITE else count(name, value)


def _linear(least: int) -> float:
    """2 * least - 1 for a count ``least``; ``INFINITE`` from 2^1023, past the doubles."""
    return INFINITE if least >= 2**1023 else 2.0 * least - 1.0


def schmidt_settings_bound(schmidt: SchmidtData, s1: int, s2: int) -> float:
    """2 * min{(sum_k sqrt(lambda_k))^2, s1, s2} - 1."""
    s1 = count("s1", s1)
    s2 = count("s2", s2)
    return 2.0 * min(schmidt_sum_squared(schmidt), s1, s2) - 1.0


def schmidt_sum_bound(schmidt: SchmidtData) -> float:
    """Settings-independent bound 2 * (sum_k sqrt(lambda_k))^2 - 1."""
    return 2.0 * schmidt_sum_squared(schmidt) - 1.0


def dimension_settings_bound(d1, d2, s1, s2) -> float:
    """2 * min{d1, d2, s1, s2} - 1, ignoring INFINITE arguments in the min.

    Holds for any state on ``H1 (x) H2`` and any generalized measurements.
    The counts are compared exactly; the bound is ``INFINITE`` when the least
    is 2^1023 or more.  Raises ``ValueError`` when every argument is infinite.
    """
    extents = [
        _check_extent("d1", d1),
        _check_extent("d2", d2),
        _check_extent("s1", s1),
        _check_extent("s2", s2),
    ]
    finite = [e for e in extents if e != INFINITE]
    if not finite:
        raise ValueError(
            "at least one of d1, d2, s1, s2 must be finite for a finite bound"
        )
    return _linear(min(finite))


def projective_bound(d: int, s: int) -> float:
    """Bound for equal local dimension d and s projective measurements per site.

    min{sqrt(d), 3} when s = 2, and min{sqrt(d^s), 2 min{d, s} - 1} when
    s >= 3.  A single setting admits no violation, so s = 1 is rejected.
    """
    d = count("d", d, least=2)
    s = count("s", s)
    if s == 1:
        raise ValueError("s = 1 admits no Bell violation; bound requires s >= 2")
    if s == 2:
        return 3.0 if d >= 9 else math.sqrt(d)
    # sqrt(d^s) = exp(s log(d) / 2) overflows past exp(700)
    root = math.inf if s > 1400.0 / math.log(d) else math.exp((s / 2.0) * math.log(d))
    return min(root, _linear(min(d, s)))


def quantum_band(b_sup: float, b_inf: float, upsilon_upper: float) -> tuple[float, float]:
    """Interval certainly containing every quantum value of a functional.

    For classical extrema ``b_inf <= b_sup`` and any upper bound
    ``upsilon_upper >= 1`` on the violation ratio, the quantum value lies in
    [b_inf - w, b_sup + w] with w = (upsilon_upper - 1)/2 * (b_sup - b_inf).
    """
    if not (b_sup >= b_inf):
        raise ValueError(f"b_sup must be >= b_inf, got {b_sup!r} < {b_inf!r}")
    if not upsilon_upper >= 1.0:
        raise ValueError(f"upsilon_upper must be >= 1, got {upsilon_upper!r}")
    width = (upsilon_upper - 1.0) / 2.0 * (b_sup - b_inf)
    return (b_inf - width, b_sup + width)


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one state and scenario.

    ``projective`` is present only when the caller asserted the projective
    hypotheses (equal dimensions, equal setting counts, projective
    measurements); ``applicable_min`` is the minimum of the present fields.
    """

    schmidt_settings: float
    schmidt_sum: float
    dimension_settings: float
    projective: float | None
    applicable_min: float
    s1: int
    s2: int
    d1: int | float
    d2: int | float


def bound_report(
    schmidt: SchmidtData, d1, d2, s1: int, s2: int, assert_projective: bool = False
) -> BoundReport:
    """Assemble all bounds that apply to a state in a scenario.

    ``assert_projective=True`` states that both sites use the same finite
    dimension, the same number of settings, and projective measurements;
    only then does the projective bound appear (and count in the minimum).
    """
    d1 = _check_extent("d1", d1)
    d2 = _check_extent("d2", d2)
    s1 = count("s1", s1)
    s2 = count("s2", s2)
    b_schmidt = schmidt_settings_bound(schmidt, s1, s2)
    b_sum = schmidt_sum_bound(schmidt)
    b_dim = dimension_settings_bound(d1, d2, s1, s2)
    b_proj: float | None = None
    if assert_projective:
        if d1 != d2 or d1 == INFINITE:
            raise ValueError(
                "projective hypotheses require equal finite dimensions, "
                f"got d1={d1!r}, d2={d2!r}"
            )
        if s1 != s2:
            raise ValueError(
                f"projective hypotheses require equal setting counts, got {s1} and {s2}"
            )
        b_proj = projective_bound(d1, s1)
    present = [b_schmidt, b_sum, b_dim] + ([b_proj] if b_proj is not None else [])
    return BoundReport(
        schmidt_settings=b_schmidt,
        schmidt_sum=b_sum,
        dimension_settings=b_dim,
        projective=b_proj,
        applicable_min=min(present),
        s1=s1,
        s2=s2,
        d1=d1,
        d2=d2,
    )
