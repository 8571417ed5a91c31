"""Every JSON format of the package: states, functionals, source operators, reports.

States come in three forms::

    {"type": "dense",    "d1": int, "d2": int, "re": [[...]], "im": [[...]]}
    {"type": "schmidt",  "coefficients": [real, ...]}
    {"type": "coherent", "family": 1..4, "alpha": real, "cutoff": int | "auto"}

Schmidt-form inputs live on the computational bases of r x r; coherent-form
inputs are truncated to Fock space but represent an infinite-dimensional
family, so their reported dimensions are the infinite marker.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .bell import BellFunctional, OutcomeSet, chsh_functional
from .bounds import INFINITE
from .coherent import CoherentFamily, fock_state, fock_truncation
from .errors import ValidationError
from .qstate import PureState
from .source_op import SourceOperator


def sig12(x: float) -> float:
    """Round to 12 significant digits (the CLI's number format)."""
    return float(f"{x:.12g}")


def round_tree(obj):
    """Recursively round every float in a JSON-ready structure to 12 digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinite"
        return sig12(obj)
    if isinstance(obj, dict):
        return {k: round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_tree(v) for v in obj]
    return obj


def render_json(obj) -> str:
    """Deterministic JSON text for a report (12 significant digits)."""
    return json.dumps(round_tree(obj), indent=2) + "\n"


def complex_matrix_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ValidationError(f"{context} JSON is missing key {key!r}")
    return obj[key]


def json_int(obj: dict, key: str, context: str) -> int:
    """Integer field of a JSON object: an int, or a float with an integral value.

    ``None``, booleans, strings, containers and non-finite or fractional
    numbers are a :class:`ValidationError`.
    """
    value = _require(obj, key, context)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(
        f"{context} JSON key {key!r} must be an integer, got {value!r:.40}"
    )


def json_reals(obj: dict, key: str, context: str) -> np.ndarray:
    """Real number or nested lists of them in a JSON object, as a float array.

    Every leaf must be a JSON number, not a bool, string, null or object.
    """
    value = _require(obj, key, context)
    lists = [[value]]  # scanned without recursion, however deep the nesting
    while lists:
        items = lists.pop()
        kinds = set(map(type, items))
        if list in kinds:
            lists.extend(item for item in items if type(item) is list)
        for kind in kinds - {list}:
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise ValidationError(
                    f"{context} JSON key {key!r} must hold real numbers, got {kind.__name__}")
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"{context} JSON key {key!r} must hold real numbers: {exc}"
        ) from exc


def state_from_json(obj: dict) -> tuple[PureState, int | float, int | float]:
    """Parse a state description; returns (state, d1 extent, d2 extent).

    Extents are the ambient Hilbert-space dimensions: the matrix dimensions,
    as ``int``, for dense/schmidt inputs and ``INFINITE`` for coherent families.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"state JSON must be an object, got {type(obj).__name__}")
    kind = _require(obj, "type", "state")
    if kind == "dense":
        d1 = json_int(obj, "d1", "dense state")
        d2 = json_int(obj, "d2", "dense state")
        re = json_reals(obj, "re", "dense state")
        im = json_reals(obj, "im", "dense state")
        if re.shape != (d1, d2) or im.shape != (d1, d2):
            raise ValidationError(
                f"dense state arrays must have shape ({d1}, {d2}), got "
                f"{re.shape} and {im.shape}"
            )
        return PureState(re + 1j * im), d1, d2
    if kind == "schmidt":
        coeffs = json_reals(obj, "coefficients", "schmidt state")
        if coeffs.ndim != 1 or len(coeffs) < 1:
            raise ValidationError("schmidt coefficients must be a nonempty list")
        if np.any(coeffs < 0):
            raise ValidationError("schmidt coefficients must be nonnegative")
        r = len(coeffs)
        return PureState(np.diag(coeffs.astype(complex))), r, r
    if kind == "coherent":
        family = json_int(obj, "family", "coherent state")
        alpha = json_reals(obj, "alpha", "coherent state")
        if alpha.ndim != 0:
            raise ValidationError("coherent state alpha must be a number")
        cutoff = obj.get("cutoff", "auto")
        if cutoff != "auto":
            cutoff = json_int(obj, "cutoff", "coherent state")
        fam = CoherentFamily(family, float(alpha))
        trunc = fock_truncation(fam.alpha, cutoff=cutoff)
        return fock_state(fam, trunc), INFINITE, INFINITE
    raise ValidationError(f"unknown state type {kind!r}")


def functional_from_json(obj: dict) -> BellFunctional:
    """Parse ``{"s1", "s2", "outcomes1", "outcomes2", "phi"}``."""
    if not isinstance(obj, dict):
        raise ValidationError(
            f"functional JSON must be an object, got {type(obj).__name__}"
        )
    s1 = json_int(obj, "s1", "functional")
    s2 = json_int(obj, "s2", "functional")
    out1, out2 = (_outcome_set(obj, key) for key in ("outcomes1", "outcomes2"))
    phi = json_reals(obj, "phi", "functional")
    expected = (s1, s2, out1.size, out2.size)
    if phi.shape != expected:
        raise ValidationError(
            f"functional phi has shape {phi.shape}, expected {expected}"
        )
    return BellFunctional(out1, out2, phi)


def _outcome_set(obj: dict, key: str) -> OutcomeSet:
    labels = json_reals(obj, key, "functional")
    if labels.ndim != 1:
        raise ValidationError(f"functional {key} must be a list of numbers")
    return OutcomeSet(tuple(labels.tolist()))


def functional_to_json(f: BellFunctional) -> dict:
    return {
        "s1": f.s1,
        "s2": f.s2,
        "outcomes1": list(f.outcomes1.labels),
        "outcomes2": list(f.outcomes2.labels),
        "phi": f.phi.tolist(),
    }


def read_json(path: str):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValidationError(f"JSON in {path} is nested too deeply to parse") from None


def resolve_functional(spec: str) -> BellFunctional:
    """Builtin functional name or path to a functional JSON file."""
    if spec == "chsh":
        return chsh_functional()
    return functional_from_json(read_json(spec))


def source_operator_to_json(T: SourceOperator) -> dict:
    """``{"s1", "s2", "d1", "d2", "re", "im"}``: the sizes, then the matrix's parts."""
    return {"s1": T.s1, "s2": T.s2, "d1": T.d1, "d2": T.d2, **complex_matrix_json(T.matrix)}


def source_operator_from_json(obj: dict) -> SourceOperator:
    """Inverse of :func:`source_operator_to_json`."""
    what = "source operator"
    sizes = {key: json_int(obj, key, what) for key in ("s1", "s2", "d1", "d2")}
    re = json_reals(obj, "re", what)
    im = json_reals(obj, "im", what)
    # checked before combining, where NumPy would broadcast a row or a
    # scalar `im`; SourceOperator then checks the size against d1^s1*d2^s2
    if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
        raise ValidationError(
            f"source operator arrays must be square and of one shape, got "
            f"{re.shape} and {im.shape}"
        )
    matrix = np.empty(re.shape, dtype=complex)
    matrix.real, matrix.imag = re, im  # bit for bit: re + 1j*im drops the sign of -0.0
    return SourceOperator(matrix=matrix, **sizes)
