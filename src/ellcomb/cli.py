"""Command-line surface over the library.

Commands mirror the modules: theta evaluation, weight families,
weighted binomials, normal ordering, rook and file polynomials, the
Fibonacci recursions, and the verification harness.  Complex flags use
the "RE,IM" format (a bare "RE" is accepted).  Exit codes: 0 success,
1 verification failure, 2 usage or domain error.  A handler that needs
``boards``, ``skewpoly`` or ``verify`` imports it with ``from . import``
when it runs and reads its names from the module at call time, so a
command loads only the modules it runs and a test replaces a name by
patching that module.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import suppress

from .special_fn import (
    DomainError,
    EvaluationError,
    NearPoleError,
    ParameterSet,
    VerifyError,
    _FAMILY_TAGS,
    complex_to_pair,
    family_from_spec,
    theta,
)
from .weightpoly import WeightPolynomial
from .ncword import (
    NormalForm, RelationSystem, WordParseError, normal_order, parse_word, sum_chunks,
)
from . import _CACHES

__all__ = ["main"]

_BOARD_CAP = 8
_COMPLEX_FLAGS = ("--x", "--a", "--b", "--q", "--p")
# characters per write of streamed output: each write to a pipe costs a
# call into the text layer and, past its buffer, a system call
_BLOCK = 1 << 16


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


def _parse_heights(text: str) -> list:
    return [int(part) for part in text.split(",")]


# the check of each flag whose value may begin with "-"
_VALUE_CHECKS = dict.fromkeys(_COMPLEX_FLAGS, _parse_complex) | {"--board": _parse_heights}


def _join_flag_values(argv) -> list:
    # argparse takes "-0.5,0.1" or "-1,2" for an option, so a value that
    # passes its flag's check (RE,IM after a complex flag, comma-separated
    # integers after --board) is joined to the flag, as FLAG=VALUE
    joined = []
    for token in argv:
        parse = _VALUE_CHECKS.get(joined[-1]) if joined else None
        if parse:
            with suppress(argparse.ArgumentTypeError, ValueError):
                parse(token)
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _fmt_number(value) -> str:
    z = complex(value)
    if abs(z.imag) <= 1e-12 * abs(z.real):
        real = z.real
        if real == int(real) and abs(real) < 1e15:
            return str(int(real))
        return repr(real)
    re_part = repr(z.real)
    im_part = repr(abs(z.imag))
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{im_part}j"


def _family_from_args(args) -> object:
    return family_from_spec(
        args.family,
        a=getattr(args, "a", None), b=getattr(args, "b", None),
        q=getattr(args, "q", None), p=getattr(args, "p", None))


def _emit(args, value) -> None:
    """Print a number, a WeightPolynomial, a NormalForm or an evaluated
    normal form {(i, j): number} as text, or as JSON under --json.  A
    symbolic value is written in chunks, joined into blocks of about
    64 KB: its text or document can be hundreds of megabytes when held
    whole."""
    if isinstance(value, (WeightPolynomial, NormalForm)):
        chunks = value.json_chunks() if args.json else value.text_chunks()
    elif isinstance(value, dict):
        if args.json:
            chunks = [json.dumps({"terms": [
                {"i": i, "j": j, "value": complex_to_pair(v)}
                for (i, j), v in sorted(value.items())]}, sort_keys=True)]
        else:
            chunks = sum_chunks({key: _fmt_number(v) for key, v in value.items() if v != 0})
    elif args.json:
        chunks = [json.dumps({"value": complex_to_pair(complex(value))}, sort_keys=True)]
    else:
        chunks = [_fmt_number(value)]
    block: list = []
    size = 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            sys.stdout.write("".join(block))
            block, size = [], 0
    block.append("\n")
    sys.stdout.write("".join(block))


def _cmd_theta(args) -> int:
    value = theta(args.x, args.p)
    _emit(args, value)
    return 0


def _cmd_weight(args) -> int:
    family = _family_from_args(args)
    if args.big:
        value = family.big(args.s, args.t)
    else:
        value = family.small(args.s, args.t)
    _emit(args, value)
    return 0


def _cmd_binom(args) -> int:
    family = _family_from_args(args)
    value = family.binom(args.n, args.k)
    _emit(args, value)
    return 0


def _cmd_normal_order(args) -> int:
    word = parse_word(args.word)
    nf = normal_order(word, RelationSystem.from_tag(args.system))
    if args.family is None or args.family == "generic":
        _emit(args, nf)
    else:
        _emit(args, nf.evaluate(_family_from_args(args)))
    return 0


def _cmd_board_poly(args) -> int:
    from . import boards
    board = boards.FerrersBoard.from_text(args.board)
    if board.n > _BOARD_CAP or (board.heights and max(board.heights) > _BOARD_CAP):
        raise _UsageError(f"board exceeds the {_BOARD_CAP}x{_BOARD_CAP} command-line cap")
    _emit(args, getattr(boards, args.poly)(board, args.k, _family_from_args(args)))
    return 0


def _cmd_fib(args) -> int:
    from . import skewpoly
    if args.elliptic:
        if args.closed:
            raise _UsageError("--closed applies only to --aq")
        missing = [flag for flag in ("a", "b", "q", "p")
                   if getattr(args, flag) is None]
        if missing:
            raise _UsageError("--elliptic needs --a --b --q --p")
        ps = ParameterSet(args.a, args.b, args.q, args.p)
        value = skewpoly.fib_elliptic(args.n, ps)
    else:
        if args.a is None or args.q is None:
            raise _UsageError("--aq needs --a --q")
        if args.closed:
            value = skewpoly.fib_aq_closed(args.n, args.a, args.q)
        else:
            value = skewpoly.fib_aq(args.n, args.a, args.q)
    _emit(args, value)
    return 0


def _counters() -> tuple:
    # the module-level caches' counts and the cyclic collector's, per
    # generation
    return {name: cache.cache_info() for name, cache in _CACHES.items()}, gc.get_stats()


def _print_stats(check_id: str, seconds: float, before: tuple) -> None:
    # one stderr line per check: its time; per module-level cache, the
    # change in hits, misses and size while it ran, and its bound; and
    # the collector's runs per generation and the objects it freed
    caches, collector = _counters()
    old_caches, old_collector = before
    parts = [f"stats {check_id} {seconds * 1000:.1f} ms"]
    for name, info in caches.items():
        old = old_caches[name]
        parts.append(f"{name} hits +{info.hits - old.hits} "
                     f"misses +{info.misses - old.misses} "
                     f"size {info.currsize - old.currsize:+d} of {info.maxsize}")
    runs = "/".join(f"+{new['collections'] - old['collections']}"
                    for new, old in zip(collector, old_collector))
    freed = sum(new["collected"] - old["collected"]
                for new, old in zip(collector, old_collector))
    parts.append(f"gc collections {runs} collected +{freed}")
    print("; ".join(parts), file=sys.stderr)


def _cmd_verify(args) -> int:
    from . import verify
    if args.order is not None and args.order < 1:
        raise _UsageError(f"--order must be at least 1, got {args.order}")
    sizes = {"order": args.order} if args.order is not None else None
    known = [c.id for c in verify.list_identities()]
    if args.id is not None and args.id not in known:
        raise _UsageError(f"unknown check id {args.id!r}; known ids: {', '.join(known)}")
    if args.stats:
        # free the cycles made before the checks (the argument parser's),
        # so the collector counts of the first check are its own
        gc.collect()
    reports = []
    for check_id in known if args.id is None else [args.id]:
        before = _counters() if args.stats else None
        started = time.perf_counter()
        reports.append(verify.run_check(check_id, seed=args.seed, sizes=sizes))
        if args.stats:
            _print_stats(check_id, time.perf_counter() - started, before)
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


def _add_parameter_flags(parser) -> None:
    for flag in ("--a", "--b", "--q", "--p"):
        parser.add_argument(flag, type=_parse_complex, default=None)


def _add_family_flags(parser, default=None) -> None:
    parser.add_argument("--family", choices=_FAMILY_TAGS, default=default)
    _add_parameter_flags(parser)


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
    p_no.add_argument("--system", choices=[m.value for m in RelationSystem], required=True)
    p_no.add_argument("--word", required=True)
    _add_family_flags(p_no)
    _add_json(p_no)
    p_no.set_defaults(handler=_cmd_normal_order)

    for kind in ("rook", "file"):
        p_board = sub.add_parser(
            kind, help=f"weighted {kind} polynomial of a board",
            description=f"Weighted k-{kind} polynomial of a Ferrers board.")
        p_board.add_argument("--board", required=True)
        p_board.add_argument("--k", type=int, required=True)
        _add_family_flags(p_board, default="generic")
        _add_json(p_board)
        p_board.set_defaults(handler=_cmd_board_poly, poly=f"{kind}_poly")

    p_fib = sub.add_parser("fib", help="theta or one-parameter Fibonacci numbers")
    p_fib.add_argument("--n", type=int, required=True)
    mode = p_fib.add_mutually_exclusive_group(required=True)
    mode.add_argument("--elliptic", action="store_true")
    mode.add_argument("--aq", action="store_true")
    _add_parameter_flags(p_fib)
    p_fib.add_argument("--closed", action="store_true")
    _add_json(p_fib)
    p_fib.set_defaults(handler=_cmd_fib)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--id", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", dest="json")
    p_verify.add_argument("--stats", action="store_true",
                          help="print each check's time, cache hits, misses "
                               "and size changes, and garbage collector runs "
                               "to stderr")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


# built on the first call to main and reused by later calls in the same
# process; the handlers look up every name they use at call time, so a
# parse carries no state into the next
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
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
