"""Independent numeric oracles for the benchmark's correctness checks.

Nothing here imports bellbound: every expected value is recomputed from
the generated inputs with numpy and closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Slack on the trace-norm window and on closed-form comparisons.
TOL = 1e-9


def brute_force_extrema(phi: np.ndarray) -> tuple[float, float]:
    """(sup, inf) over every deterministic strategy pair, both sites enumerated."""
    s1, s2, m1, m2 = phi.shape
    a = np.array(list(itertools.product(range(m1), repeat=s1)))
    b = np.array(list(itertools.product(range(m2), repeat=s2)))
    # values[i, j] = sum_{s,t} phi[s, t, a_i[s], b_j[t]]
    values = np.zeros((len(a), len(b)))
    for s in range(s1):
        for t in range(s2):
            values += phi[s, t][a[:, s]][:, b[:, t]]
    return float(values.max()), float(values.min())


def schmidt_settings_bound(coefficients, s1: int, s2: int) -> float:
    """2 min{(sum_k sqrt(lambda_k))^2, s1, s2} - 1."""
    return 2.0 * min(float(np.sum(coefficients)) ** 2, s1, s2) - 1.0


def source_norm_in_window(norm: float, coefficients) -> bool:
    """1 <= trace norm <= 2 (sum_k sqrt(lambda_k))^2 - 1, within TOL."""
    cap = 2.0 * float(np.sum(coefficients)) ** 2 - 1.0
    return 1.0 - TOL <= norm <= cap + TOL


def coherent_schmidt(family: int, alpha: float) -> tuple[float, float]:
    """Schmidt coefficients of a two-mode coherent family member.

    With x = exp(-2 alpha^2), |a>|a> +- |-a>|-a> is (1+x)|e+e+> +- (1-x)|e-e->
    in the even/odd basis; families 2 and 4 differ by a local flip only.
    """
    x = math.exp(-2.0 * alpha * alpha)
    if family in (1, 2):
        norm = math.sqrt(2.0 * (1.0 + x * x))
        return (1.0 + x) / norm, (1.0 - x) / norm
    return math.sqrt(0.5), math.sqrt(0.5)


def coherent_bound(family: int, alpha: float) -> float:
    c = coherent_schmidt(family, alpha)
    return 2.0 * (c[0] + c[1]) ** 2 - 1.0
