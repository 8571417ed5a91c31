"""Finite Bell scenarios: classical extrema, quantum values, see-saw search.

A functional assigns a real weight to every (setting pair, outcome pair)
event; its classical extrema are exact maxima over deterministic strategies
(the extreme points of the local-hidden-variable polytope), quantum values
come from the Born rule with product POVMs, and a see-saw maximizer searches
for large quantum values of binary-outcome functionals.  Every found value
can be certified against the closed-form bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_report, quantum_band
from .errors import (
    CapacityError,
    DegeneracyError,
    UnsupportedFunctionalError,
    ValidationError,
)
from .qstate import (_HERM_GROUP, CERTIFY_ATOL, HERM_ATOL_POVM, LHV_ZERO_ATOL, POVM_SUM_ATOL,
                     VALUE_SLACK, PureState, check_hermitian, count, readonly, schmidt_decompose)

#: Maximum work of exact enumeration: strategies enumerated times the
#: table entries each one sums (see :func:`lhv_extrema`).
ENUMERATION_GUARD = 10**7

#: Chunk size for vectorized strategy enumeration.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class OutcomeSet:
    """Ordered distinct real outcome labels of one site's measurements."""

    labels: tuple[float, ...]

    def __post_init__(self) -> None:
        labels = tuple(float(v) for v in self.labels)
        if len(labels) < 2:
            raise ValueError(f"need at least 2 outcome labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct, got {labels}")
        if not all(math.isfinite(v) for v in labels):
            raise ValueError("outcome labels must be finite")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class BellFunctional:
    """Real weight tensor over (setting1, setting2, outcome1, outcome2)."""

    outcomes1: OutcomeSet
    outcomes2: OutcomeSet
    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 4:
            raise ValueError(f"phi must have 4 axes, got {phi.ndim}")
        if phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError(f"phi must cover at least one setting pair, got {phi.shape}")
        if phi.shape[2] != self.outcomes1.size or phi.shape[3] != self.outcomes2.size:
            raise ValueError(
                f"phi outcome axes {phi.shape[2:]}, expected "
                f"({self.outcomes1.size}, {self.outcomes2.size})"
            )
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi entries must be finite")
        object.__setattr__(self, "phi", readonly(phi))

    @property
    def s1(self) -> int:
        return self.phi.shape[0]

    @property
    def s2(self) -> int:
        return self.phi.shape[1]


def chsh_functional() -> BellFunctional:
    """CHSH in correlation form: weights [[1,1],[1,-1]] over ±1 outcomes."""
    labels = (1.0, -1.0)
    signs = np.array(labels)
    c = np.array([[1.0, 1.0], [1.0, -1.0]])
    phi = np.einsum("st,a,b->stab", c, signs, signs)
    return BellFunctional(OutcomeSet(labels), OutcomeSet(labels), phi)


def _checked_site(povms, site_no: int) -> tuple[np.ndarray, ...]:
    """A site validated element by element; raises the first failure by name.

    Each setting needs at least 2 elements; each element must be square,
    non-empty, pass :func:`~bellbound.qstate.check_hermitian` and have the
    site's dimension; then each setting must sum to the identity, and its
    elements are stacked once, to one read-only ``(m, d, d)`` array.
    """
    dim = None
    site_out = []
    for s, povm in enumerate(povms):
        where = f"site {site_no} setting {s}"
        if len(povm) < 2:
            raise ValidationError(f"{where}: POVM needs >= 2 elements")
        elements = []
        for a, element in enumerate(povm):
            m = np.array(element, dtype=complex)
            what = f"{where} element {a}"
            # check_hermitian would take a 3-d array for a stack
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"{what} must be square, got shape {m.shape}")
            if m.size == 0:
                raise ValidationError(f"{what} is empty, got shape {m.shape}")
            check_hermitian(m, what, HERM_ATOL_POVM, psd=True)
            dim = m.shape[0] if dim is None else dim
            if m.shape[0] != dim:
                raise ValidationError(f"{what}: dimension {m.shape[0]} differs from {dim}")
            elements.append(m)
        dev = float(np.max(np.abs(sum(elements) - np.eye(dim))))
        if dev > POVM_SUM_ATOL:
            raise ValidationError(
                f"{where}: POVM elements do not sum to identity (max deviation {dev:.3e})"
            )
        site_out.append(readonly(np.stack(elements)))
    return tuple(site_out)


def _stacked_site(povms) -> tuple[np.ndarray, ...] | None:
    """A site whose settings stack to one ``(s, m, d, d)`` array, validated at once.

    The site is copied once.  For each group of consecutive settings of at
    most ``_HERM_GROUP`` entries (one setting if a setting alone is larger),
    m - 1 additions over the group check its settings' sums, adding in the
    order of ``sum(elements)``, and one
    :func:`~bellbound.qstate.check_hermitian` call certifies its elements.
    Returns the settings as read-only ``(m, d, d)`` views of the copy, or
    None when the settings do not stack, a setting has fewer than 2
    elements, or any check fails: :func:`_checked_site` then decides and
    names the failure.
    """
    try:
        stack = np.array(povms, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        return None  # ragged or not numeric
    if stack.ndim != 4 or stack.shape[1] < 2 or not stack.shape[2] == stack.shape[3] > 0:
        return None
    n_settings, m, dim = stack.shape[:3]
    eye = np.eye(dim)
    per_group = max(1, _HERM_GROUP // stack[0].size)
    for first in range(0, n_settings, per_group):
        group = stack[first:first + per_group]
        # the elements are not validated yet: a NaN or infinite entry passes
        # or fails here quietly, and check_hermitian refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            total = group[:, 0] + group[:, 1]
            for a in range(2, m):
                total += group[:, a]
            dev = np.abs(total - eye).max(axis=(1, 2))
        if np.any(dev > POVM_SUM_ATOL):
            return None
        try:
            check_hermitian(group.reshape(-1, dim, dim), "site", HERM_ATOL_POVM, psd=True)
        except ValidationError:
            return None
    return tuple(readonly(stack))


@dataclass(frozen=True)
class Assemblage:
    """Per-site, per-setting POVMs compatible with a (d1, d2) state.

    A site is given as settings of ``(d, d)`` elements, as nested sequences
    or arrays, and held as a tuple of settings, each one read-only
    ``(m, d, d)`` array, so ``site1[s][a]`` is element ``a`` of setting ``s``.
    A site whose settings stack to one ``(s, m, d, d)`` array is validated
    by one :func:`~bellbound.qstate.check_hermitian` call per group of
    settings (:func:`_stacked_site`), and its settings are views of one
    copy.  Any other site, and any site that fails there, is validated
    element by element (:func:`_checked_site`), and that loop alone names a
    failure.
    """

    site1: tuple[np.ndarray, ...]
    site2: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for site_no in (1, 2):
            povms = getattr(self, f"site{site_no}")
            if len(povms) < 1:
                raise ValidationError(f"site {site_no} needs at least one POVM")
            object.__setattr__(self, f"site{site_no}",
                               _stacked_site(povms) or _checked_site(povms, site_no))

    @property
    def dim1(self) -> int:
        return self.site1[0].shape[-1]

    @property
    def dim2(self) -> int:
        return self.site2[0].shape[-1]


@dataclass(frozen=True)
class LhvExtrema:
    """Exact classical extrema of a functional with witness strategies."""

    b_sup: float
    b_inf: float
    b_lhv: float
    argmax_strategy: tuple[tuple[int, ...], tuple[int, ...]]
    argmin_strategy: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.b_inf > self.b_sup:
            raise ValidationError(f"b_inf {self.b_inf!r} exceeds b_sup {self.b_sup!r}")
        if self.b_lhv != max(abs(self.b_sup), abs(self.b_inf)):
            raise ValidationError("b_lhv must equal max(|b_sup|, |b_inf|)")


@dataclass(frozen=True)
class ViolationReport:
    """Certification of one claimed quantum value against the closed bounds."""

    quantum_value: float
    b_lhv: float
    ratio: float
    bound_schmidt_settings: float
    bound_dimension_settings: float
    certified: bool
    band: tuple[float, float]
    value_in_band: bool


def strategy_value(
    f: BellFunctional, a: tuple[int, ...], b: tuple[int, ...]
) -> float:
    """Classical value of one deterministic strategy pair."""
    if len(a) != f.s1 or len(b) != f.s2:
        raise ValueError(
            f"strategy lengths ({len(a)}, {len(b)}) do not match settings "
            f"({f.s1}, {f.s2})"
        )
    total = 0.0
    for s in range(f.s1):
        for t in range(f.s2):
            total += f.phi[s, t, a[s], b[t]]
    return total


def _enumerate_extrema(phi: np.ndarray):
    """Extrema over deterministic strategies of a (s_out, m_out, s_in, m_in) tensor.

    Enumerates assignments of the *last* two axes (the "inner" site) in
    lexicographic order; for each, the outer site's best responses are
    independent per setting.  Tables are built one inner setting at a time:
    appending setting t to every row so far is one broadcast addition, so
    m^k strategies cost about m/(m-1) * m^k row additions, not k * m^k.  When
    m_in^s_in exceeds ``_CHUNK``, leading settings are fixed in turn and each
    block enumerates the rest.  Every row still adds its slices from setting
    0 upwards, so each strategy's sums are those of summing it alone.  The
    best responses take the elementwise maximum (minimum) of the m_out
    outcome slices, one call per outcome over every row at once: a max over
    the 2-4-long outcome axis would spend most of the call in NumPy's
    per-row reduction overhead.  Max and min are exact, so every extremum
    and witness is the one the axis reduction gives.
    Returns (sup, sup_inner, sup_outer, inf, inf_inner, inf_outer).
    """
    s_out, m_out, s_in, m_in = phi.shape
    # [s_in, m_in, s_out, m_out] in C order: every table below is then
    # C-ordered and reduces in one fixed order
    per_inner = np.ascontiguousarray(phi.transpose(2, 3, 0, 1))
    free = s_in
    while free > 1 and m_in**free > _CHUNK:
        free -= 1
    best_sup = -math.inf
    best_inf = math.inf
    sup_inner = inf_inner = None
    sup_outer = inf_outer = None
    for prefix in itertools.product(range(m_in), repeat=s_in - free):
        slices = [per_inner[t, v:v + 1] for t, v in enumerate(prefix)]
        slices.extend(per_inner[s_in - free:])
        tables = slices[0]
        for rows in slices[1:]:
            tables = (tables[:, None] + rows).reshape(-1, s_out, m_out)
        hi = lo = tables[..., 0]
        for a in range(1, m_out):
            hi = np.maximum(hi, tables[..., a])
            lo = np.minimum(lo, tables[..., a])
        sups = hi.sum(axis=1)
        infs = lo.sum(axis=1)
        k = int(np.argmax(sups))
        if sups[k] > best_sup:
            best_sup = float(sups[k])
            sup_inner = prefix + _digits(k, m_in, free)
            sup_outer = tuple(int(v) for v in tables[k].argmax(axis=1))
        k = int(np.argmin(infs))
        if infs[k] < best_inf:
            best_inf = float(infs[k])
            inf_inner = prefix + _digits(k, m_in, free)
            inf_outer = tuple(int(v) for v in tables[k].argmin(axis=1))
    return best_sup, sup_inner, sup_outer, best_inf, inf_inner, inf_outer


def _digits(k: int, base: int, width: int) -> tuple[int, ...]:
    """``k`` as ``width`` digits in ``base``, most significant first."""
    return tuple(int(v) for v in np.unravel_index(k, (base,) * width))


def lhv_extrema(f: BellFunctional) -> LhvExtrema:
    """Exact classical extrema by exhaustive deterministic-strategy enumeration.

    Deterministic strategies are the extreme points of the local-hidden-
    variable polytope, so the sup/inf over them equal the sup/inf over all
    local models.  The cheaper site is enumerated; the other site's optimal
    response decomposes per setting.  Ties resolve to the first strategy in
    lexicographic enumeration order.  Each of the ``min(n1, n2)`` enumerated
    strategies sums ``s_in`` slices of an ``s_out x m_out`` table; that work,
    not the ``n1 * n2`` strategy pairs, is held to ``ENUMERATION_GUARD``.
    """
    m1, m2 = f.outcomes1.size, f.outcomes2.size
    n1 = m1**f.s1
    n2 = m2**f.s2
    work = n2 * f.s2 * f.s1 * m1 if n2 <= n1 else n1 * f.s1 * f.s2 * m2
    if work > ENUMERATION_GUARD:
        raise CapacityError(
            f"enumerating {min(n1, n2)} deterministic strategies sums {work} table "
            f"entries, above the enumeration guard {ENUMERATION_GUARD}; reduce "
            f"settings or outcomes"
        )
    if n2 <= n1:
        # enumerate site 2, best-respond site 1: [s1, m1, s2, m2]
        sup, sup_b, sup_a, inf, inf_b, inf_a = _enumerate_extrema(
            f.phi.transpose(0, 2, 1, 3)
        )
    else:
        sup, sup_a, sup_b, inf, inf_a, inf_b = _enumerate_extrema(
            f.phi.transpose(1, 3, 0, 2)
        )
    return LhvExtrema(
        b_sup=sup,
        b_inf=inf,
        b_lhv=max(abs(sup), abs(inf)),
        argmax_strategy=(sup_a, sup_b),
        argmin_strategy=(inf_a, inf_b),
    )


def _check_compatible(
    state: PureState, asm: Assemblage, s1: int = 0, s2: int = 0
) -> None:
    """Raise ValueError unless ``asm`` fits ``state`` and (s1, s2) is a setting pair."""
    if (asm.dim1, asm.dim2) != (state.d1, state.d2):
        raise ValueError(
            f"assemblage dimensions ({asm.dim1}, {asm.dim2}) do not match state "
            f"({state.d1}, {state.d2})"
        )
    if not 0 <= s1 < len(asm.site1):
        raise ValueError(f"setting s1={s1} out of range for {len(asm.site1)} settings")
    if not 0 <= s2 < len(asm.site2):
        raise ValueError(f"setting s2={s2} out of range for {len(asm.site2)} settings")


def _born_table(amp: np.ndarray, site1, site2) -> np.ndarray:
    """Born values <psi| E (x) F |psi>, one row per element E of ``site1``, one column per F.

    Both sites are sequences of ``(m, d, d)`` settings.  With psi the
    row-major vectorisation of the amplitude matrix A,
    <psi| E (x) F |psi> = sum_jl (A^H E A)_jl F_jl: one batched sandwich per
    site-1 setting gives its rows A^H E A, and one product per site-2
    setting, read in place as ``(m, d*d)`` rows, pairs them with its
    elements.
    """
    ah = amp.conj().T
    rows = np.concatenate([(ah @ povm @ amp).reshape(len(povm), -1) for povm in site1])
    return np.concatenate([rows @ povm.reshape(len(povm), -1).T for povm in site2], axis=1).real


def quantum_probabilities(
    state: PureState, asm: Assemblage, s1: int, s2: int
) -> np.ndarray:
    """Born-rule outcome table for one setting pair, shape (m1, m2)."""
    _check_compatible(state, asm, s1, s2)
    return _born_table(state.amplitudes, asm.site1[s1:s1 + 1], asm.site2[s2:s2 + 1])


def bell_value(f: BellFunctional, state: PureState, asm: Assemblage) -> float:
    """Quantum value sum_{s,t,a,b} phi[s,t,a,b] * p(a,b | s,t).

    Costs O(s1*m1*d^3 + s1*s2*m1*m2*d^2): one sandwich per site-1 element and
    one product per site-2 setting with every sandwich, each setting read in
    place (see :func:`_born_table`).
    """
    if len(asm.site1) != f.s1 or len(asm.site2) != f.s2:
        raise ValueError(
            f"assemblage setting counts ({len(asm.site1)}, {len(asm.site2)}) do not "
            f"match functional ({f.s1}, {f.s2})"
        )
    for site_no, site, out in ((1, asm.site1, f.outcomes1), (2, asm.site2, f.outcomes2)):
        for s, povm in enumerate(site):
            if len(povm) != out.size:
                raise ValueError(f"site {site_no} setting {s} has {len(povm)} outcomes, "
                                 f"functional expects {out.size}")
    _check_compatible(state, asm)
    table = _born_table(state.amplitudes, asm.site1, asm.site2)
    shape = (f.s1, f.outcomes1.size, f.s2, f.outcomes2.size)
    return float(np.einsum("stab,satb->", f.phi, table.reshape(shape)))


def _sign_observables(h: np.ndarray) -> np.ndarray:
    """±1 observables maximizing tr[O_s h_s] for a stack of h_s.

    Each O_s is +1 on the nonnegative eigenspace of h_s and -1 elsewhere;
    one stacked ``eigh`` serves the whole stack.
    """
    sym = (h + h.conj().swapaxes(-1, -2)) / 2.0
    w, v = np.linalg.eigh(sym)
    o = (v * np.where(w >= 0.0, 1.0, -1.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (o + o.conj().swapaxes(-1, -2)) / 2.0


def _best_response(amp, c0, row, c3, row_other, others):
    """One site's best ±1 observables against the other's, and the objective there.

    For site 1, setting s has the partial Bell operator
    H_s = A (row[s] I + sum_t c3[s,t] O_t)^T A^H, with A the amplitude matrix
    and O_t the site-2 observables; sign(H_s) maximizes tr[O_s H_s].  Site 2
    is the same call with A^T and c3^T, since (A^H K A)* = A^T K^T A* for
    Hermitian K.  Returns the stacked observables and the objective at them,
    c0 + sum_t row_other[t] tr[O_t rho_other] + sum_s tr[O_s H_s].
    """
    k = row[:, None, None] * np.eye(amp.shape[1])
    k = k + np.einsum("st,tij->sij", c3, others)
    partial = amp @ k.swapaxes(-1, -2) @ amp.conj().T
    ops = _sign_observables(partial)
    fixed = np.einsum("t,tij,ji->", row_other, others, amp.T @ amp.conj())
    return ops, c0 + float((fixed + np.einsum("sij,sji->", ops, partial)).real)


def _value_slack(f: BellFunctional) -> float:
    """Float slack on a Bell value of ``f``: ``VALUE_SLACK * max(1, sum |phi|)``."""
    return VALUE_SLACK * max(1.0, float(np.abs(f.phi).sum()))


def seesaw_maximize(
    f: BellFunctional,
    state: PureState,
    restarts: int = 10,
    max_iters: int = 200,
    tol: float = 1e-12,
    seed: int = 0,
) -> tuple[float, Assemblage]:
    """Alternating best-response search for a large quantum value.

    Supports ±1 outcomes on both sites.  Site-2 observables start as
    sign-split seeded Gaussian Hermitian samples; each sweep replaces every
    site-1 observable with the sign of its partial Bell operator (outcome +1
    on the nonnegative eigenspace), then symmetrically for site 2, until the
    value improves by less than ``tol`` or ``max_iters`` sweeps pass.  Each
    half-sweep is one :func:`_best_response`, which also returns the value
    at the observables it chose.  The best restart wins and the returned
    value is re-evaluated from the returned assemblage.

    Returns:
        (value, assemblage) for the best run over ``restarts`` restarts.
    """
    for name, out in (("site 1", f.outcomes1), ("site 2", f.outcomes2)):
        if sorted(out.labels) != [-1.0, 1.0]:
            raise UnsupportedFunctionalError(
                f"see-saw requires ±1 outcomes; {name} has labels {out.labels}"
            )
    restarts = count("restarts", restarts)
    max_iters = count("max_iters", max_iters)
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    amp = state.amplitudes
    d1, d2 = state.d1, state.d2
    # split phi over ±1 outcomes into constant, marginal and correlation parts
    l1 = np.array(f.outcomes1.labels)
    l2 = np.array(f.outcomes2.labels)
    c0 = float(np.einsum("stab->", f.phi)) / 4.0
    row1 = (np.einsum("stab,a->st", f.phi, l1) / 4.0).sum(axis=1)
    row2 = (np.einsum("stab,b->st", f.phi, l2) / 4.0).sum(axis=0)
    c3 = np.einsum("stab,a,b->st", f.phi, l1, l2) / 4.0
    site1 = (amp, c0, row1, c3, row2)
    site2 = (amp.T, c0, row2, c3.T, row1)
    # float noise in the objective grows with the weights; so does the guard
    slack = _value_slack(f)

    best_val = -math.inf
    best_ops = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        ops2 = _sign_observables(np.array([
            rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
            for _ in range(f.s2)
        ]))
        ops1, value = _best_response(*site1, ops2)
        for _ in range(max_iters):
            ops2, mid = _best_response(*site2, ops1)
            ops1, new = _best_response(*site1, ops2)
            if mid < value - slack or new < mid - slack:
                raise RuntimeError(
                    "see-saw objective decreased; best-response update is broken"
                )
            gained = new - value
            value = new
            if gained < tol:
                break
        if value > best_val:
            best_val = value
            best_ops = (ops1, ops2)

    ops1, ops2 = best_ops
    asm = Assemblage(
        site1=(np.eye(d1, dtype=complex) + l1[:, None, None] * ops1[:, None]) / 2.0,
        site2=(np.eye(d2, dtype=complex) + l2[:, None, None] * ops2[:, None]) / 2.0,
    )
    return bell_value(f, state, asm), asm


def certify(f: BellFunctional, state: PureState, value: float) -> ViolationReport:
    """Certify a claimed quantum value against the closed-form bounds.

    Recomputes the classical extrema, forms ratio = |value| / b_lhv, and
    checks it against :func:`bound_report`'s ``applicable_min`` (slack
    ``CERTIFY_ATOL``).  Also reports the interval that must contain every
    quantum value of the functional and whether ``value`` lies inside it,
    with the float slack of :func:`_value_slack`, which the see-saw's guard
    uses too.  A NaN or infinite ``value`` raises :class:`ValidationError`.
    """
    if not math.isfinite(value):
        raise ValidationError(f"claimed quantum value must be finite, got {value!r}")
    ext = lhv_extrema(f)
    if abs(ext.b_lhv) < LHV_ZERO_ATOL:
        raise DegeneracyError(
            "classical bound is zero (all deterministic strategies vanish); "
            "violation ratio is undefined"
        )
    rep = bound_report(schmidt_decompose(state), state.d1, state.d2, f.s1, f.s2)
    ratio = abs(value) / ext.b_lhv
    lo, hi = quantum_band(ext.b_sup, ext.b_inf, rep.schmidt_settings)
    slack = _value_slack(f)
    return ViolationReport(
        quantum_value=float(value),
        b_lhv=ext.b_lhv,
        ratio=ratio,
        bound_schmidt_settings=rep.schmidt_settings,
        bound_dimension_settings=rep.dimension_settings,
        certified=bool(ratio <= rep.applicable_min + CERTIFY_ATOL),
        band=(lo, hi),
        value_in_band=bool(lo - slack <= value <= hi + slack),
    )
