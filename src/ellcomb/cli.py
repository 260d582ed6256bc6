"""Command-line surface over the library.

Commands mirror the modules: theta evaluation, weight families,
weighted binomials, normal ordering, rook and file polynomials, the
Fibonacci recursions, and the verification harness.  Complex flags use
the "RE,IM" format (a bare "RE" is accepted).  Exit codes: 0 success,
1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .special_fn import (
    DomainError,
    EvaluationError,
    NearPoleError,
    ParameterSet,
    complex_to_pair,
    family_from_spec,
    theta,
)
from .weightpoly import WeightPolynomial
from .ncword import NormalForm, RelationSystem, WordParseError, normal_order, parse_word
from .boards import FerrersBoard, file_poly, rook_poly
from .skewpoly import fib_aq, fib_aq_closed, fib_elliptic
from .verify import VerifyError, list_identities, run_all, run_check

__all__ = ["main"]

_BOARD_CAP = 8


class _UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def _fmt_number(value) -> str:
    z = complex(value)
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        real = z.real
        if real == int(real) and abs(real) < 1e15:
            return str(int(real))
        return repr(real)
    re_part = repr(z.real)
    im_part = repr(abs(z.imag))
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{im_part}j"


def _fmt_monomial(i: int, j: int) -> str:
    pieces = []
    if i:
        pieces.append("x" if i == 1 else f"x^{i}")
    if j:
        pieces.append("y" if j == 1 else f"y^{j}")
    return " ".join(pieces)


def _fmt_evaluated_nf(values: dict) -> str:
    terms = []
    for (i, j), value in sorted(values.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
        if value == 0:
            continue
        mono = _fmt_monomial(i, j)
        coeff = _fmt_number(value)
        if not mono:
            terms.append(coeff)
        elif coeff == "1":
            terms.append(mono)
        else:
            terms.append(f"{coeff} {mono}")
    return " + ".join(terms) if terms else "0"


def _family_from_args(args) -> object:
    return family_from_spec(
        args.family,
        a=getattr(args, "a", None), b=getattr(args, "b", None),
        q=getattr(args, "q", None), p=getattr(args, "p", None))


def _emit(args, text: str, doc) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)


def _emit_value(args, value) -> None:
    """Emit a symbolic WeightPolynomial or a number."""
    if isinstance(value, WeightPolynomial):
        _emit(args, str(value), value.to_json())
    else:
        _emit(args, _fmt_number(value), {"value": complex_to_pair(complex(value))})


def _cmd_theta(args) -> int:
    value = theta(args.x, args.p)
    _emit_value(args, value)
    return 0


def _cmd_weight(args) -> int:
    family = _family_from_args(args)
    if args.big:
        value = family.big(args.s, args.t)
    else:
        value = family.small(args.s, args.t)
    _emit_value(args, value)
    return 0


def _cmd_binom(args) -> int:
    family = _family_from_args(args)
    value = family.binom(args.n, args.k)
    _emit_value(args, value)
    return 0


def _cmd_normal_order(args) -> int:
    word = parse_word(args.word)
    rs = RelationSystem.from_tag(args.system)
    nf = normal_order(word, rs)
    if args.family is None or args.family == "generic":
        _emit(args, str(nf), nf.to_json())
        return 0
    family = _family_from_args(args)
    values = nf.evaluate(family)
    doc = {"terms": [{"i": i, "j": j, "value": complex_to_pair(v)}
                     for (i, j), v in sorted(values.items())]}
    _emit(args, _fmt_evaluated_nf(values), doc)
    return 0


def _parse_board(text: str) -> FerrersBoard:
    board = FerrersBoard.from_text(text)
    if board.n > _BOARD_CAP or (board.heights and max(board.heights) > _BOARD_CAP):
        raise _UsageError(f"board exceeds the {_BOARD_CAP}x{_BOARD_CAP} command-line cap")
    return board


def _cmd_board_poly(args, poly) -> int:
    board = _parse_board(args.board)
    if args.family is None or args.family == "generic":
        value = poly(board, args.k, family_from_spec("generic"))
    else:
        value = poly(board, args.k, _family_from_args(args))
    _emit_value(args, value)
    return 0


def _cmd_fib(args) -> int:
    if args.elliptic:
        if args.closed:
            raise _UsageError("--closed applies only to --aq")
        missing = [flag for flag in ("a", "b", "q", "p")
                   if getattr(args, flag) is None]
        if missing:
            raise _UsageError("--elliptic needs --a --b --q --p")
        ps = ParameterSet(args.a, args.b, args.q, args.p)
        value = fib_elliptic(args.n, ps)
    else:
        if args.a is None or args.q is None:
            raise _UsageError("--aq needs --a --q")
        if args.closed:
            value = fib_aq_closed(args.n, args.a, args.q)
        else:
            value = fib_aq(args.n, args.a, args.q)
    _emit_value(args, value)
    return 0


def _cmd_verify(args) -> int:
    if args.order is not None and args.order < 1:
        raise _UsageError(f"--order must be at least 1, got {args.order}")
    sizes = {"order": args.order} if args.order is not None else None
    if args.id is not None:
        try:
            reports = [run_check(args.id, seed=args.seed, sizes=sizes)]
        except KeyError:
            known = ", ".join(c.id for c in list_identities())
            raise _UsageError(f"unknown check id {args.id!r}; known ids: {known}")
    elif sizes is not None:
        reports = [run_check(c.id, seed=args.seed, sizes=sizes)
                   for c in list_identities()]
    else:
        reports = run_all(args.seed)
    if args.json:
        if args.id is not None:
            print(json.dumps(reports[0].to_json(), sort_keys=True))
        else:
            print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {rep.id} trials={rep.trials} "
                  f"failures={rep.failures} max_rel_err={rep.max_rel_err:.3e}")
    return 0 if all(rep.passed for rep in reports) else 1


def _add_family_flags(parser, default=None) -> None:
    parser.add_argument("--family", choices=["generic", "elliptic", "bq", "aq", "q"],
                        default=default)
    parser.add_argument("--a", type=_parse_complex, default=None)
    parser.add_argument("--b", type=_parse_complex, default=None)
    parser.add_argument("--q", type=_parse_complex, default=None)
    parser.add_argument("--p", type=_parse_complex, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellcomb",
        description="weight-dependent combinatorial identities: evaluate and verify")
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")

    p_theta = sub.add_parser("theta", help="evaluate the modified theta product")
    p_theta.add_argument("--x", type=_parse_complex, required=True)
    p_theta.add_argument("--p", type=_parse_complex, required=True)
    _add_json(p_theta)
    p_theta.set_defaults(handler=_cmd_theta)

    p_weight = sub.add_parser("weight", help="small or big column weight")
    _add_family_flags(p_weight, default="generic")
    p_weight.add_argument("--s", type=int, required=True)
    p_weight.add_argument("--t", type=int, required=True)
    p_weight.add_argument("--big", action="store_true")
    _add_json(p_weight)
    p_weight.set_defaults(handler=_cmd_weight)

    p_binom = sub.add_parser("binom", help="weight-dependent binomial coefficient")
    _add_family_flags(p_binom, default="generic")
    p_binom.add_argument("--n", type=int, required=True)
    p_binom.add_argument("--k", type=int, required=True)
    _add_json(p_binom)
    p_binom.set_defaults(handler=_cmd_binom)

    p_no = sub.add_parser("normal-order", help="normal-order a word in x, y")
    p_no.add_argument("--system", choices=["comm", "weyl", "file"], required=True)
    p_no.add_argument("--word", required=True)
    _add_family_flags(p_no)
    _add_json(p_no)
    p_no.set_defaults(handler=_cmd_normal_order)

    p_rook = sub.add_parser(
        "rook", help="weighted rook polynomial of a board",
        description="Weighted k-rook polynomial of a Ferrers board.  With "
                    "--family elliptic a cell weighs the single-index theta "
                    "weight w(s - t), not the two-index small weight w(s, t).")
    p_rook.add_argument("--board", required=True)
    p_rook.add_argument("--k", type=int, required=True)
    _add_family_flags(p_rook)
    _add_json(p_rook)
    p_rook.set_defaults(handler=lambda a: _cmd_board_poly(a, rook_poly))

    p_file = sub.add_parser(
        "file", help="weighted file polynomial of a board",
        description="Weighted k-file polynomial of a Ferrers board.  With "
                    "--family elliptic a cell weighs the single-index theta "
                    "weight w(1 - t), not the two-index small weight w(s, t).")
    p_file.add_argument("--board", required=True)
    p_file.add_argument("--k", type=int, required=True)
    _add_family_flags(p_file)
    _add_json(p_file)
    p_file.set_defaults(handler=lambda a: _cmd_board_poly(a, file_poly))

    p_fib = sub.add_parser("fib", help="theta or one-parameter Fibonacci numbers")
    p_fib.add_argument("--n", type=int, required=True)
    mode = p_fib.add_mutually_exclusive_group(required=True)
    mode.add_argument("--elliptic", action="store_true")
    mode.add_argument("--aq", action="store_true")
    p_fib.add_argument("--a", type=_parse_complex, default=None)
    p_fib.add_argument("--b", type=_parse_complex, default=None)
    p_fib.add_argument("--q", type=_parse_complex, default=None)
    p_fib.add_argument("--p", type=_parse_complex, default=None)
    p_fib.add_argument("--closed", action="store_true")
    _add_json(p_fib)
    p_fib.set_defaults(handler=_cmd_fib)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--id", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", dest="json")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (_UsageError, DomainError, WordParseError, NearPoleError,
            EvaluationError, VerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
