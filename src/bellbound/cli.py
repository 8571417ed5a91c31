"""Command-line surface: JSON/CSV reports over the library.

Exit codes: 0 success, 1 usage error, 2 validation/argument error,
3 capacity error, 4 violate report with ``certified=false``.  Each command
is a handler registered with its arguments by :func:`_command`; it returns
its report, a dict or CSV text, and :func:`main` renders and writes it once.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from . import bell, bounds, coherent, source_op
from .errors import BellboundError, CapacityError
from .qstate import DEFAULT_TRUNCATION_TOL, schmidt_decompose, schmidt_sum_squared
from .serialize import (
    complex_matrix_json,
    read_json,
    render_json,
    resolve_functional,
    source_operator_to_json,
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
    return state_from_json(read_json(path))


def _arg(*flags, **kwargs):
    """One argument, as a function that adds it to a parser or a group."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _one_of(*arguments):
    """A required choice of exactly one of ``arguments``."""
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for argument in arguments:
            argument(group)
    return add


_INPUT = _arg("--input", required=True, help="state JSON file")
_TRUNCATION_TOL = _arg("--tol", type=float, default=DEFAULT_TRUNCATION_TOL,
                       help="singular-value truncation tolerance (default %(default)g)")
_FAMILY = _arg("--family", type=int, required=True, choices=(1, 2, 3, 4))
_FUNCTIONAL = _arg("--functional", required=True, help='"chsh" or a functional JSON file')
_SHARED = (
    _arg("--seed", type=int, default=0,
         help="seed of any random draw, echoed in the report (default %(default)s)"),
    _arg("--output", help="write the report here instead of stdout"),
)

#: ``(name, help, handler, arguments)`` of every command, in the order of ``bellbound -h``.
_COMMANDS = []


def _command(name: str, help: str, *arguments):
    """Register a handler as command ``name``: ``arguments``, then ``--seed`` and ``--output``."""
    def register(handler):
        _COMMANDS.append((name, help, handler, arguments + _SHARED))
        return handler
    return register


@_command("schmidt", "Schmidt decomposition of a state file", _INPUT, _TRUNCATION_TOL)
def _cmd_schmidt(args) -> dict:
    state, _, _ = _load_state(args.input)
    sd = schmidt_decompose(state, truncation_tol=args.tol)
    return {
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


@_command("bound", "all applicable violation bounds for a state", _INPUT,
          _arg("--s1", type=int, required=True, help="settings at site 1"),
          _arg("--s2", type=int, required=True, help="settings at site 2"),
          _arg("--projective", action="store_true",
               help="assert equal dims, equal settings, projective measurements"),
          _TRUNCATION_TOL)
def _cmd_bound(args) -> dict:
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
        "d1": rep.d1,
        "d2": rep.d2,
        "schmidt_rank": sd.rank,
        "truncation_tol": args.tol,
        "seed": args.seed,
    }
    if rep.projective is not None:
        report["projective_bound"] = rep.projective
    return report


@_command("source-op", "build a source operator and check it", _INPUT,
          _one_of(_arg("--s1", type=int, help="copies of site 1 (single copy of site 2)"),
                  _arg("--s2", type=int, help="copies of site 2 (single copy of site 1)")),
          _arg("--check", action="store_true",
               help="bound the dilation residual over every observable pair"),
          _arg("--export", help="also write the operator matrix JSON here"),
          _TRUNCATION_TOL)
def _cmd_source_op(args) -> dict:
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
        report["dilation_residual"] = source_op.verify_dilation(op, state)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(render_json(source_operator_to_json(op)))
    return report


@_command("coherent", "closed-form analysis of a coherent family", _FAMILY,
          _arg("--alpha", type=float, required=True),
          _arg("--tol", type=float, default=coherent.DEFAULT_TAIL_TOL,
               help="Fock tail tolerance (default %(default)g)"))
def _cmd_coherent(args) -> dict:
    fam = coherent.CoherentFamily(args.family, args.alpha)
    trunc = coherent.fock_truncation(fam.alpha, tail_tol=args.tol)
    return {
        "family": fam.family,
        "alpha": fam.alpha,
        "eigenvalues": list(coherent.reduced_eigenvalues(fam)),
        "bound": coherent.coherent_violation_bound(fam),
        "overlap_x": fam.overlap_x,
        "cutoff": trunc.cutoff,
        "tail_bound": trunc.tail_bound,
        "tail_tol": args.tol,
        "seed": args.seed,
    }


@_command("coherent-curve", "violation-bound curve as CSV", _FAMILY,
          _arg("--alpha-min", type=float, default=0.01),
          _arg("--alpha-max", type=float, default=3.0),
          _arg("--steps", type=int, default=300))
def _cmd_coherent_curve(args) -> str:
    points = coherent.bound_curve(args.family, args.alpha_min, args.alpha_max, args.steps)
    return "".join(["alpha,bound\n"] + [f"{a:.12g},{b:.12g}\n" for a, b in points])


@_command("lhv", "exact classical extrema of a functional", _FUNCTIONAL)
def _cmd_lhv(args) -> dict:
    f = resolve_functional(args.functional)
    ext = bell.lhv_extrema(f)
    return {
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


@_command("violate", "search and certify a quantum violation", _FUNCTIONAL, _INPUT,
          _arg("--value", type=float,
               help="certify this externally obtained value instead of searching"),
          _arg("--restarts", type=int, default=10),
          _arg("--iters", type=int, default=200),
          _arg("--tol", type=float, default=1e-12,
               help="see-saw convergence tolerance (default %(default)g)"))
def _cmd_violate(args) -> dict:
    f = resolve_functional(args.functional)
    state, _, _ = _load_state(args.input)
    value, searched = args.value, args.value is None
    if searched:
        value, _ = bell.seesaw_maximize(f, state, restarts=args.restarts,
                                        max_iters=args.iters, tol=args.tol, seed=args.seed)
    return {
        **dataclasses.asdict(bell.certify(f, state, value)),
        "seesaw": searched,
        "restarts": args.restarts if searched else 0,
        "iters": args.iters if searched else 0,
        "tol": args.tol,
        "seed": args.seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help)
        for argument in arguments:
            argument(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        report = args.handler(args)
        text = report if isinstance(report, str) else render_json(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (BellboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    uncertified = isinstance(report, dict) and report.get("certified") is False
    return EXIT_UNCERTIFIED if uncertified else EXIT_OK


def entry() -> None:
    sys.exit(main())
