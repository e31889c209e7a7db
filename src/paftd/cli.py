"""Command-line front end.

``solve``, ``oracle``, ``preprocess`` and ``validate-td`` print a single JSON
record to stdout; ``generate`` and ``decompose`` print the generated document
itself (PAF text resp. TD text) so output can be piped straight into a file.
Exit codes: 0 success, 2 usage error, 3 input error, 4 capacity/timeout.
A closed stdout ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache

from . import oracle, paffile, preprocess, solver, treedecomp
from .core import exact_text
from .errors import BudgetExceeded, CapacityError, InputError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAPACITY = 4

_SEMANTICS_ALIASES = {
    "adm": "adm",
    "admissible": "adm",
    "com": "com",
    "complete": "com",
    "stb": "stb",
    "stable": "stb",
    "grd": "grd",
    "grounded": "grd",
}


def _semantics(name: str, allowed) -> str:
    sigma = _SEMANTICS_ALIASES.get(name)
    if sigma is None or sigma not in allowed:
        raise InputError(f"unsupported semantics {name!r}")
    return sigma


def _decimal15(value: Fraction) -> str:
    ctx = decimal.Context(prec=15)
    return str(ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)))


def _answer_fields(value: Fraction, mode: str) -> dict:
    text = solver.answer_text(solver.rounded(value, mode))
    return {"answer": text, "answerDecimal": _decimal15(value) if mode == "rational" else text}


def _parse_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x]


def _parse_set(text: str) -> frozenset[str]:
    return frozenset(_parse_list(text))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _reduce_ext(paf, sigma: str, S, enabled: bool):
    """The instance a P-Ext query is answered on, the multiplier of its
    answer, and the record's ``preprocess`` status: ``(paf, 1, "off")``
    unless ``enabled`` under com, ``(None, 0, "zero")`` when forced labels
    answer zero, and else the reduced instance with ``"on"``."""
    if not enabled or sigma != "com":
        return paf, 1, "off"
    reduction = preprocess.simplify_for_ext(paf, S)
    if reduction.zero:
        return None, 0, "zero"
    return reduction.paf, reduction.multiplier, "on"


def _cmd_solve(args) -> int:
    started = time.monotonic()
    deadline = started + args.timeout if args.timeout > 0 else None
    doc = paffile.parse_paf(_read(args.input))
    paf = doc.paf
    sigma = _semantics(args.semantics, solver.DP_SEMANTICS)
    S = args.set if args.set is not None else doc.query_set
    if S is None:
        raise InputError("no query set: pass --set or add a set line to the file")

    td = treedecomp.parse_td(_read(args.td_file)) if args.td_file else None
    if args.order is not None:  # a fixed decomposition, replayed like --td-file
        td = treedecomp.decompose(paf.af, order=args.order)
    result = width = nodes = None  # the traced DP's result; the record's shape
    if sigma in solver.CLOSED_FORM_SEMANTICS and not args.trace:
        # the closed form needs no decomposition; a fixed one is still checked
        # and made nice, as the DP would, and gives the record its shape
        value, status = solver.closed_form(paf, sigma, S), "off"
        if td is not None:
            nice = solver.fixed_td(paf, td)
            width, nodes = nice.width(), nice.node_count()
    else:
        # a TD describes the unreduced instance, so a fixed one turns preprocessing off
        instance, multiplier, status = _reduce_ext(paf, sigma, S, args.preprocess == "on" and td is None)
        if instance is None:  # preprocessing answered zero
            value = Fraction(0)
        else:
            if args.heuristic is not None:  # it decomposes the instance that preprocessing left
                td = treedecomp.decompose(instance.af, heuristic=args.heuristic)
            if args.trace:
                result = solver.solve(instance, sigma, S, mode=args.mode, td=td, trace=True, deadline=deadline)
                exact, width, nodes = result.exact, result.width, result.node_count
            else:  # only com reaches here: the three-state sum answers it
                exact, nice = solver.three_state(instance, S, td=td, deadline=deadline)
                width, nodes = nice.width(), nice.node_count()
            value = exact * multiplier
    record = {
        **_answer_fields(value, args.mode),
        "mode": args.mode,
        "semantics": args.semantics,
        "width": width,
        "nodes": nodes,
        "preprocess": status,
        "wallMillis": int((time.monotonic() - started) * 1000),
    }
    if args.trace and result:
        record["trace"] = result.trace
    _emit(record)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    deadline = started + args.timeout if args.timeout > 0 else None
    doc = paffile.parse_paf(_read(args.input))
    paf = doc.paf
    sigma = _semantics(args.semantics, oracle.ORACLE_SEMANTICS)

    queries = [q for q in (args.ext, args.acc, args.count_ext, args.count_acc) if q is not None]
    if not queries:
        if doc.query_set is not None:
            args.ext = doc.query_set
        elif doc.query_arg is not None:
            args.acc = doc.query_arg
        else:
            raise InputError("no query: pass --ext/--acc/--count-ext/--count-acc")
    elif len(queries) > 1:
        raise InputError("pass exactly one of --ext/--acc/--count-ext/--count-acc")

    if args.ext is not None:
        instance, multiplier, _ = _reduce_ext(paf, sigma, args.ext, args.preprocess == "on")
        if instance is None:  # preprocessing answered zero
            value = Fraction(0)
        else:
            value = oracle.p_ext_oracle(instance, sigma, args.ext, cap=args.cap, deadline=deadline) * multiplier
        fields = _answer_fields(value, "rational")
    elif args.acc is not None:
        if args.preprocess == "on" and preprocess.simplify_for_acc(paf, args.acc):
            value = Fraction(0)
        else:
            value = oracle.p_acc_oracle(paf, sigma, args.acc, cap=args.cap, deadline=deadline)
        fields = _answer_fields(value, "rational")
    elif args.count_ext is not None:
        fields = {"answer": oracle.count_ext(paf, sigma, args.count_ext, cap=args.cap, deadline=deadline)}
    else:
        fields = {"answer": oracle.count_acc(paf, sigma, args.count_acc, cap=args.cap, deadline=deadline)}

    record = {
        **fields,
        "mode": "rational",
        "semantics": args.semantics,
        "width": None,
        "nodes": None,
        "wallMillis": int((time.monotonic() - started) * 1000),
    }
    _emit(record)
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    started = time.monotonic()
    doc = paffile.parse_paf(_read(args.input))
    paf = doc.paf
    forced = preprocess.forced_labeling(paf)
    record = {
        "forcedIn": sorted(forced.forced_in),
        "forcedOut": sorted(forced.forced_out),
        "wallMillis": None,  # filled in last, so it covers the whole command
    }
    S = args.set if args.set is not None else doc.query_set
    if S is not None:
        reduction = preprocess.simplify_for_ext(paf, S)
        record["set"] = sorted(S)
        record["zero"] = reduction.zero
        if not reduction.zero:
            record["multiplier"] = exact_text(reduction.multiplier)
            record["removed"] = sorted(
                set(paf.af.arguments) - set(reduction.paf.af.arguments)
            )
    record["wallMillis"] = int((time.monotonic() - started) * 1000)
    _emit(record)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise InputError(f"seed must be non-negative, got {args.seed}")
    doc = paffile.parse_paf(_read(args.input))
    rng = None
    if args.seed is not None:
        import numpy as np  # only a seeded order needs numpy

        rng = np.random.default_rng(args.seed)
    td = treedecomp.decompose(doc.paf.af, heuristic=args.heuristic, order=args.order, rng=rng)
    if args.nice:
        td = treedecomp.make_nice(td)
    sys.stdout.write(td.serialize())
    return EXIT_OK


def _cmd_validate_td(args) -> int:
    doc = paffile.parse_paf(_read(args.input))
    td = treedecomp.parse_td(_read(args.td_file))
    violations = td.validate(doc.paf.af)
    _emit(
        {
            "ok": not violations,
            "violations": violations,
            "width": td.width(),
            "nodes": td.node_count(),
        }
    )
    return EXIT_OK if not violations else EXIT_INPUT


def _cmd_generate(args) -> int:
    from . import generator  # it imports numpy, which no other command needs

    try:
        rows, cols = args.grid.lower().split("x")
        spec = generator.GridSpec(int(rows), int(cols), args.seed)
    except ValueError:
        raise InputError(f"invalid grid spec {args.grid!r}; expected KxN") from None
    sys.stdout.write(generator.generate_grid_document(spec))
    return EXIT_OK


@cache  # parse_args leaves the parser as it is, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paftd",
        description="Exact constellation-semantics solver for probabilistic AFs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="P-Ext via tree-decomposition DP")
    solve.add_argument("input")
    solve.add_argument("--semantics", default="complete")
    solve.add_argument("--set", type=_parse_set, help="comma-separated query set")
    solve.add_argument("--mode", choices=("float", "rational"), default="rational")
    td_source = solve.add_mutually_exclusive_group()
    td_source.add_argument("--td-file", help="replay a fixed (nice) tree-decomposition")
    td_source.add_argument("--heuristic", choices=treedecomp.HEURISTICS, help="default min-fill")
    td_source.add_argument("--order", type=_parse_list, help="a fixed elimination order")
    solve.add_argument("--preprocess", choices=("on", "off"), default="on")
    solve.add_argument("--timeout", type=float, default=300.0, help="seconds (default 300); 0 means no limit")
    solve.add_argument("--trace", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    orc = sub.add_parser("oracle", help="brute-force enumeration ground truth")
    orc.add_argument("input")
    orc.add_argument("--semantics", default="complete")
    orc.add_argument("--ext", type=_parse_set, help="comma-separated set for P-Ext")
    orc.add_argument("--acc", help="argument for P-Acc")
    orc.add_argument("--count-ext", type=_parse_set, help="comma-separated set for scenario counting")
    orc.add_argument("--count-acc", help="argument for scenario counting")
    orc.add_argument("--cap", type=int, default=oracle.DEFAULT_UNCERTAINTY_CAP)
    orc.add_argument("--preprocess", choices=("on", "off"), default="off")
    orc.add_argument("--timeout", type=float, default=300.0, help="seconds (default 300); 0 means no limit")
    orc.set_defaults(func=_cmd_oracle)

    prep = sub.add_parser("preprocess", help="forced labeling and query reduction")
    prep.add_argument("input")
    prep.add_argument("--set", type=_parse_set, help="comma-separated query set")
    prep.set_defaults(func=_cmd_preprocess)

    dec = sub.add_parser("decompose", help="emit a tree-decomposition")
    dec.add_argument("input")
    order_source = dec.add_mutually_exclusive_group()
    order_source.add_argument("--heuristic", choices=treedecomp.HEURISTICS, default="min-fill")
    order_source.add_argument("--order", type=_parse_list, help="a fixed elimination order")
    dec.add_argument("--nice", action="store_true", help="emit the nice form")
    dec.add_argument("--seed", type=int, help="randomize heuristic tie-breaks")
    dec.set_defaults(func=_cmd_decompose)

    val = sub.add_parser("validate-td", help="check a TD file against an instance")
    val.add_argument("input")
    val.add_argument("--td-file", required=True)
    val.set_defaults(func=_cmd_validate_td)

    gen = sub.add_parser("generate", help="emit a seeded grid instance")
    gen.add_argument("--grid", required=True, help="dimensions, e.g. 3x5")
    gen.add_argument("--seed", type=int, required=True)
    gen.set_defaults(func=_cmd_generate)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "decompose" and args.order is not None and args.seed is not None:
            parser.error("argument --seed: not allowed with argument --order")
        if not getattr(args, "timeout", 0) >= 0:  # a negative or NaN timeout
            parser.error("argument --timeout: give 0 (no limit) or a positive number of seconds")
        if getattr(args, "cap", 0) < 0:
            parser.error("argument --cap: give a non-negative number of uncertain elements")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (CapacityError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a pipe's buffered output fails here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: it wants no more output, which is no
        # failure; fd 1 points at devnull so the interpreter's last flush
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
