"""Command-line surface: JSON/CSV reports over the library.

Exit codes: 0 success, 1 usage error, 2 validation/argument error,
3 capacity error, 4 violate report with ``certified=false``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bell, bounds, coherent, source_op
from .errors import BellboundError, CapacityError
from .qstate import DEFAULT_TRUNCATION_TOL, schmidt_decompose, schmidt_sum_squared
from .serialize import (
    complex_matrix_json,
    render_json,
    resolve_functional,
    state_from_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_UNCERTIFIED = 4


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; we use 1.

    A token that reads as a negative float, such as ``-1e3``, ``-inf`` or
    ``-nan``, is a value, not an option (argparse itself takes only ``-2``
    and ``-2.5``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


class _UsageError(Exception):
    pass


def _load_state(path: str):
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))


def _extent_json(extent: float):
    return "infinite" if extent == bounds.INFINITE else int(extent)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt decomposition of a state file")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TRUNCATION_TOL,
                   help="singular-value truncation tolerance (default 1e-12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write report here instead of stdout")

    p = sub.add_parser("bound", help="all applicable violation bounds for a state")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--s1", type=int, required=True, help="settings at site 1")
    p.add_argument("--s2", type=int, required=True, help="settings at site 2")
    p.add_argument("--projective", action="store_true",
                   help="assert equal dims, equal settings, projective measurements")
    p.add_argument("--tol", type=float, default=DEFAULT_TRUNCATION_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("source-op", help="build a source operator and check it")
    p.add_argument("--input", required=True, help="state JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--s1", type=int, help="copies of site 1 (single copy of site 2)")
    group.add_argument("--s2", type=int, help="copies of site 2 (single copy of site 1)")
    p.add_argument("--check", action="store_true", help="verify the dilation property")
    p.add_argument("--samples", type=int, default=20,
                   help="observable pairs for --check (default 20)")
    p.add_argument("--export", help="also write the operator matrix JSON here")
    p.add_argument("--tol", type=float, default=DEFAULT_TRUNCATION_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("coherent", help="closed-form analysis of a coherent family")
    p.add_argument("--family", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=coherent.DEFAULT_TAIL_TOL,
                   help="Fock tail tolerance (default 1e-14)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("coherent-curve", help="violation-bound curve as CSV")
    p.add_argument("--family", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--alpha-min", type=float, default=0.01)
    p.add_argument("--alpha-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("lhv", help="exact classical extrema of a functional")
    p.add_argument("--functional", required=True,
                   help='"chsh" or a functional JSON file')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("violate", help="search and certify a quantum violation")
    p.add_argument("--functional", required=True)
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--value", type=float,
                   help="certify this externally obtained value instead of searching")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="see-saw convergence tolerance (default 1e-12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    return parser


def _cmd_schmidt(args) -> tuple[str, int]:
    state, _, _ = _load_state(args.input)
    sd = schmidt_decompose(state, truncation_tol=args.tol)
    report = {
        "coefficients": sd.coefficients.tolist(),
        "rank": sd.rank,
        "sum_squared": schmidt_sum_squared(sd),
        "left_basis": complex_matrix_json(sd.left_basis),
        "right_basis": complex_matrix_json(sd.right_basis),
        "d1": state.d1,
        "d2": state.d2,
        "truncation_tol": sd.truncation_tol,
        "seed": args.seed,
    }
    return render_json(report), EXIT_OK


def _cmd_bound(args) -> tuple[str, int]:
    state, ext1, ext2 = _load_state(args.input)
    sd = schmidt_decompose(state, truncation_tol=args.tol)
    rep = bounds.bound_report(
        sd, ext1, ext2, args.s1, args.s2, assert_projective=args.projective
    )
    report = {
        "schmidt_settings_bound": rep.schmidt_settings,
        "schmidt_sum_bound": rep.schmidt_sum,
        "dimension_settings_bound": rep.dimension_settings,
        "applicable_min": rep.applicable_min,
        "s1": rep.s1,
        "s2": rep.s2,
        "d1": _extent_json(rep.d1),
        "d2": _extent_json(rep.d2),
        "schmidt_rank": sd.rank,
        "truncation_tol": args.tol,
        "seed": args.seed,
    }
    if rep.projective is not None:
        report["projective_bound"] = rep.projective
    return render_json(report), EXIT_OK


def _cmd_source_op(args) -> tuple[str, int]:
    state, _, _ = _load_state(args.input)
    sd = schmidt_decompose(state, truncation_tol=args.tol)
    if args.s1 is not None:
        op = source_op.build_source_sx1(sd, args.s1)
    else:
        op = source_op.build_source_1xs(sd, args.s2)
    norm = source_op.trace_norm(op.matrix)
    bound = bounds.schmidt_sum_bound(sd)
    report = {
        "s1": op.s1,
        "s2": op.s2,
        "d1": op.d1,
        "d2": op.d2,
        "trace_norm": norm,
        "schmidt_sum_bound": bound,
        "bound_slack": bound - norm,
        "truncation_tol": args.tol,
        "seed": args.seed,
    }
    if args.check:
        report["dilation_residual"] = source_op.verify_dilation(
            op, state, n_samples=args.samples, seed=args.seed
        )
        report["samples"] = args.samples
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(render_json(source_op.source_operator_to_json(op)))
    return render_json(report), EXIT_OK


def _cmd_coherent(args) -> tuple[str, int]:
    fam = coherent.CoherentFamily(args.family, args.alpha)
    trunc = coherent.fock_truncation(fam.alpha, tail_tol=args.tol)
    lam = coherent.reduced_eigenvalues(fam)
    report = {
        "family": fam.family,
        "alpha": fam.alpha,
        "eigenvalues": list(lam),
        "bound": coherent.coherent_violation_bound(fam),
        "overlap_x": fam.overlap_x,
        "cutoff": trunc.cutoff,
        "tail_bound": trunc.tail_bound,
        "tail_tol": args.tol,
        "seed": args.seed,
    }
    return render_json(report), EXIT_OK


def _cmd_coherent_curve(args) -> tuple[str, int]:
    points = coherent.bound_curve(args.family, args.alpha_min, args.alpha_max, args.steps)
    lines = ["alpha,bound"]
    lines += [f"{a:.12g},{b:.12g}" for a, b in points]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_lhv(args) -> tuple[str, int]:
    f = resolve_functional(args.functional)
    ext = bell.lhv_extrema(f)
    report = {
        "b_sup": ext.b_sup,
        "b_inf": ext.b_inf,
        "b_lhv": ext.b_lhv,
        "argmax_strategy": {
            "site1": list(ext.argmax_strategy[0]),
            "site2": list(ext.argmax_strategy[1]),
        },
        "argmin_strategy": {
            "site1": list(ext.argmin_strategy[0]),
            "site2": list(ext.argmin_strategy[1]),
        },
        "s1": f.s1,
        "s2": f.s2,
        "seed": args.seed,
    }
    return render_json(report), EXIT_OK


def _cmd_violate(args) -> tuple[str, int]:
    f = resolve_functional(args.functional)
    state, _, _ = _load_state(args.input)
    if args.value is not None:
        value = args.value
        searched = False
    else:
        value, _ = bell.seesaw_maximize(
            f,
            state,
            restarts=args.restarts,
            max_iters=args.iters,
            tol=args.tol,
            seed=args.seed,
        )
        searched = True
    rep = bell.certify(f, state, value)
    report = {
        "quantum_value": rep.quantum_value,
        "b_lhv": rep.b_lhv,
        "ratio": rep.ratio,
        "bound_schmidt_settings": rep.bound_schmidt_settings,
        "bound_dimension_settings": rep.bound_dimension_settings,
        "certified": rep.certified,
        "band": list(rep.band),
        "value_in_band": rep.value_in_band,
        "seesaw": searched,
        "restarts": args.restarts if searched else 0,
        "iters": args.iters if searched else 0,
        "tol": args.tol,
        "seed": args.seed,
    }
    return render_json(report), EXIT_OK if rep.certified else EXIT_UNCERTIFIED


_HANDLERS = {
    "schmidt": _cmd_schmidt,
    "bound": _cmd_bound,
    "source-op": _cmd_source_op,
    "coherent": _cmd_coherent,
    "coherent-curve": _cmd_coherent_curve,
    "lhv": _cmd_lhv,
    "violate": _cmd_violate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        text, code = _HANDLERS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (BellboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())
