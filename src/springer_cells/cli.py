"""Command-line surface.

Subcommands: enumerate, word, cell, cut, closure, limit, fqcount, verify.
Exit codes: 0 success, 1 verification failure (with a machine-readable
report on stdout), 2 usage error, 141 standard output closed early.  JSON
output is schema-stable and, for a fixed seed, byte-identical between runs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import textio
from .cells import build_template
from .closure import closure_decomposition, swap_candidates, synthesize_limit_curve
from .cutting import cut_set, labeled_cut
from .errors import SpringerCellsError, TooManyArcs
from .fqoracle import FqConfig, cross_check_cells, full_flag_count
from .matchings import (
    Arc,
    JordanType,
    Matching,
    bt_word,
    check_arc_count,
    enumerate_matchings,
    word_to_matching,
)
from .sampling import random_params
from .verify import SUITES, verify_suite

#: Exit code when stdout closes early: 128 + SIGPIPE, as shells report it.
_BROKEN_PIPE = 141


def _matching_from_args(args, parser) -> tuple[Matching, JordanType]:
    """Resolve --matching/--word/--N/--n into a matching and Jordan type;
    when both spellings are given they must agree.
    """
    if args.word is not None:
        m = word_to_matching(args.word)
        n = args.word.count("T")
        if args.n is not None and args.n != n:
            parser.error(f"--n {args.n} conflicts with word carrying {n} T letters")
        jt = JordanType(n, m.N)
        if args.N is not None and args.N != m.N:
            parser.error(f"--N {args.N} conflicts with word length {m.N}")
        # matching text carries no size: compare the arcs alone
        if args.matching is not None and textio.parse_matching(args.matching).arcs != m.arcs:
            parser.error("--matching and --word disagree")
        return m, jt
    if args.matching is None:
        parser.error("need --matching or --word")
    if args.n is None:
        parser.error("--n is required with --matching")
    m = textio.parse_matching(args.matching, args.N)
    if not (m.is_noncrossing and m.is_standard):
        parser.error("cell templates require a standard noncrossing matching")
    jt = JordanType(args.n, m.N)
    try:
        check_arc_count(m, jt)
    except TooManyArcs as exc:
        parser.error(str(exc))
    return m, jt


def _positive_int(text: str) -> int:
    """The argparse type of --max-N: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _emit(args, payload: dict, table: str) -> None:
    text = textio.dumps(payload) if args.format == "json" else table
    sys.stdout.write(text + "\n")  # one write, also when stdout is unbuffered


def cmd_enumerate(args, parser) -> int:
    jt = JordanType(args.n, args.N)
    matchings = enumerate_matchings(jt)
    items = [textio.matching_json(m, jt) for m in matchings]
    payload = {"N": jt.N, "n": jt.n, "count": len(items), "matchings": items}
    lines = [f"{len(items)} matchings for Jordan type ({jt.n},{jt.N})"]
    for m, item in zip(matchings, items):
        arcs = textio.format_matching(m) or "(no arcs)"
        lines.append(f"  {item['word']}  {arcs}  perm {tuple(item['perm'])}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_word(args, parser) -> int:
    m, jt = _matching_from_args(args, parser)
    payload = textio.matching_json(m, jt)
    table = (
        f"matching {textio.format_matching(m) or '(no arcs)'}\n"
        f"word     {payload['word']}\n"
        f"perm     {tuple(payload['perm'])}"
    )
    _emit(args, payload, table)
    return 0


def cmd_cell(args, parser) -> int:
    m, jt = _matching_from_args(args, parser)
    template = build_template(m, jt)
    payload = textio.template_json(template)
    if args.format == "latex":
        _emit(args, payload, textio.template_latex(template))
        return 0
    letters = textio.arc_letters(m)
    lines = [
        f"cell of {textio.format_matching(m) or '(no arcs)'} in type ({jt.n},{jt.N})",
        f"word {template.word}, dimension {template.dimension}",
    ]
    for r, c, arc in template.slot_items():
        lines.append(f"  variable {letters[arc]} = v{arc!r} at row {r}, column {c}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _arcs_from_args(args, parser, m: Matching) -> list[Arc]:
    """The arcs of m that --arcs names; naming an arc not in m is an error."""
    wanted = set(textio.parse_arcs(args.arcs))
    arcs = [a for a in m.arcs if a in wanted]
    if len(arcs) != len(wanted):
        parser.error(f"arcs {sorted(wanted)} not all present in the matching")
    return arcs


def cmd_cut(args, parser) -> int:
    m, jt = _matching_from_args(args, parser)
    arcs = _arcs_from_args(args, parser, m)
    if args.labels:
        piece = labeled_cut(m, arcs, jt)
        payload = textio.piece_json(piece)
        letters = textio.arc_letters(m)
        table = (
            f"cut {textio.format_matching(m)} at {args.arcs}\n"
            f"base   {textio.format_matching(piece.base) or '(no arcs)'}\n"
            f"labels {textio.piece_label_text(piece, letters)}\n"
            f"dim    {piece.dimension}"
        )
        _emit(args, payload, table)
    else:
        result = cut_set(m, arcs, jt)
        payload = {
            "matching": textio.format_matching(m),
            "cut": [[a.init, a.term] for a in sorted(arcs)],
            "result": textio.format_matching(result),
            "word": bt_word(result, jt),
        }
        table = f"{textio.format_matching(result) or '(no arcs)'}  word {payload['word']}"
        _emit(args, payload, table)
    return 0


def cmd_closure(args, parser) -> int:
    # one output per stream: the DOT graph, the JSON payload or the table
    if args.format == "json" and args.dot == "-":
        parser.error("--format json and --dot - both write to stdout")
    if args.format == "dot" and args.dot not in (None, "-"):
        parser.error(f"--format dot writes the graph to stdout, not to --dot {args.dot}")
    m, jt = _matching_from_args(args, parser)
    dec = closure_decomposition(m, jt)
    rng = random.Random(args.seed)
    payload = textio.decomposition_json(dec)
    payload["swap_candidates"] = sorted(swap_candidates(m, jt))
    failures = []
    if args.certify:
        certs = []
        for subset in dec.subsets():
            uncut = [a for a in m.arcs if a not in subset]
            target = random_params(uncut, rng)
            try:
                curve = synthesize_limit_curve(m, jt, subset, target)
            except SpringerCellsError as exc:
                curve = None
                failures.append(f"{sorted(subset)}: {exc}")
            certs.append(textio.certificate_json(subset, target, curve))
        payload["certificates"] = certs
    if args.format == "dot" and not args.dot:
        args.dot = "-"
    if args.dot:
        dot = textio.decomposition_dot(dec)
        if args.dot == "-":
            sys.stdout.write(dot + "\n")
        else:
            try:
                with open(args.dot, "w") as fh:
                    fh.write(dot + "\n")
            except OSError as exc:
                parser.error(f"cannot write --dot {args.dot}: {exc.strerror}")
    if args.dot != "-":
        letters = textio.arc_letters(m)
        lines = [f"closure of {textio.format_matching(m) or '(no arcs)'}: {len(dec.pieces)} pieces"]
        for subset in dec.subsets():
            piece = dec.pieces[subset]
            lines.append(
                f"  cut {sorted(subset) or '-'}: base"
                f" {textio.format_matching(piece.base) or '(no arcs)'}"
                f" [{textio.piece_label_text(piece, letters)}] dim {piece.dimension}"
            )
        _emit(args, payload, "\n".join(lines))
    if failures:
        print(textio.dumps({"failures": failures}), file=sys.stderr)
        return 1
    return 0


def cmd_limit(args, parser) -> int:
    m, jt = _matching_from_args(args, parser)
    arcs = _arcs_from_args(args, parser, m)
    target = {}
    if args.target:
        for part in args.target.split(";"):
            part = part.strip()
            if not part:
                continue
            arc_text, _, value = part.partition("=")
            pairs = textio.parse_arcs(arc_text)
            if len(pairs) != 1:
                parser.error(f"bad target entry {part!r}")
            i, j = pairs[0]
            if (i, j) not in m.arcs:
                parser.error(f"target arc ({i},{j}) not in matching")
            arc = Arc(i, j)
            if arc in arcs:
                parser.error(f"target arc {arc!r} is cut")
            if arc in target:
                parser.error(f"target arc {arc!r} given twice")
            target[arc] = textio.parse_scalar(value)
    rng = random.Random(args.seed)
    for a in m.arcs:
        if a not in target and a not in arcs:
            target[a] = rng.randint(1, 5)
    try:
        curve = synthesize_limit_curve(m, jt, arcs, target)
    except SpringerCellsError as exc:
        payload = textio.certificate_json(arcs, target, None)
        payload.update(matching=textio.format_matching(m), error=str(exc))
        _emit(args, payload, f"certified: False\n  error: {exc}")
        return 1
    payload = textio.certificate_json(arcs, target, curve)
    payload["matching"] = textio.format_matching(m)
    table_lines = ["certified: True"]
    for a in m.arcs:
        table_lines.append(f"  v{a!r}(t) = {curve[a]!r}")
    _emit(args, payload, "\n".join(table_lines))
    return 0


def cmd_fqcount(args, parser) -> int:
    cfg = FqConfig(args.q, JordanType(args.n, args.N))
    report = cross_check_cells(cfg)
    payload = {
        "q": args.q,
        "N": args.N,
        "n": args.n,
        "total": report.total,
        "full_flag_count": full_flag_count(args.q, args.N),
        "buckets": [
            {"pattern": list(w), "size": size}
            for w, size in sorted(report.bucket_sizes.items())
        ],
        "checks": {
            "patterns_match": report.patterns_match,
            "sizes_match": report.sizes_match,
            "instantiation_match": report.instantiation_match,
            "sum_matches": report.sum_matches,
        },
    }
    lines = [
        f"Springer flags over F_{args.q} for type ({args.n},{args.N}): {report.total}"
        f" (of {payload['full_flag_count']} complete flags)"
    ]
    for w, size in sorted(report.bucket_sizes.items()):
        lines.append(f"  pattern {w}: {size}")
    lines.append(f"cross-checks pass: {report.all_pass}")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.all_pass else 1


def cmd_verify(args, parser) -> int:
    results = verify_suite(args.suite, args.max_N, args.seed)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "results": [
            {
                "check": r.check_id,
                "passed": r.passed,
                "count": r.count,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{status:4} {r.check_id}: {r.count} instances{detail}")
    lines.append("all passed" if payload["passed"] else "FAILURES above")
    _emit(args, payload, "\n".join(lines))
    return 0 if payload["passed"] else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error in one line on stderr and exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="springer-cells",
        description="Two-row Springer Schubert cells: enumeration, cutting, closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matching_flags(p):
        p.add_argument("--matching", help='arc literal like "(1,8)(2,3)(4,7)(5,6)"')
        p.add_argument("--word", help="{B,T}-word like BBTBBTTT")
        p.add_argument("--n", type=int, default=None, help="top block size")
        p.add_argument("--N", type=int, default=None, help="ground set size")

    p = sub.add_parser("enumerate", help="all matchings of a Jordan type")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("word", help="convert matching <-> word")
    add_matching_flags(p)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("cell", help="symbolic cell matrix of a matching")
    add_matching_flags(p)
    p.add_argument("--format", choices=["table", "json", "latex"], default="table")
    p.add_argument("--latex", action="store_const", dest="format", const="latex")
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("cut", help="cut arcs in a matching")
    add_matching_flags(p)
    p.add_argument("--arcs", required=True, help='arcs to cut, e.g. "(4,7),(5,6)"')
    p.add_argument("--labels", action="store_true", help="track labels")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("closure", help="closure decomposition of a cell")
    add_matching_flags(p)
    p.add_argument("--dot", help="write a DOT graph here ('-' for stdout)")
    p.add_argument("--certify", action="store_true", help="exact limit-curve certificates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("limit", help="synthesize and verify one limit curve")
    add_matching_flags(p)
    p.add_argument("--arcs", required=True, help="arcs to cut")
    p.add_argument("--target", default="", help='uncut values "(1,4)=3/2;(5,6)=2"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("fqcount", help="finite-field Springer flag counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_const", dest="format", const="json")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_fqcount)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--max-N", type=_positive_int, default=None, dest="max_N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:  # usage errors, including parser.error in handlers
        return int(exc.code) if exc.code else 0
    except SpringerCellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        # the library raises ValueError for malformed input: a matching, a
        # word, a Jordan type, a prime or a number given on the command line;
        # OverflowError for a size past an index (``--N`` of 10**22, say)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader left (``| head``, say); as in the SIGPIPE note of the
        # signal docs, devnull takes stdout so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
