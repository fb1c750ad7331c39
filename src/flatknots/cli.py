"""Command-line surface.

Exit codes: 0 for success / positive answers, 1 for negative answers
(not equivalent, violations found, trace fails to replay), 2 for
errors (bad input, I/O, orbit budget), and 141 (128 + SIGPIPE), with
nothing on stderr, when the reader of stdout closes it early.
Single-code commands read newline-delimited codes from stdin when no
code argument is given.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from .catalog import _header, _line, _records, write_catalog
from .compose import connected_sum, is_composite, permutant_set, verify_superadditivity
from .diagram import (
    BasedDiagram,
    canonical_form,
    find_splits,
    parse,
    serialize,
)
from .invariants import u_polynomial
from .moves import SiteMismatch
from .reduce import (
    DEFAULT_LIMITS,
    MoveTrace,
    OrbitBudgetExceeded,
    OrbitLimits,
    TraceMismatch,
    equivalent,
    monotone_reduce,
    replay_trace,
)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, text: str, build) -> None:
    """Print a command's answer: `text`, which may run over several
    lines, or under --format json the dict `build()` returns, as one JSON
    line; `build` runs only then, so text computes no JSON-only field."""
    print(_json_text(build()) if args.format == "json" else text)


def _json_record(r) -> dict:
    return {
        "class": r.class_id,
        "code": r.code,
        "cr": r.cr,
        "orbit": r.orbit_size,
        "u": r.u_text,
        "verdict": r.verdict,
    }


def _input_codes(args) -> list[str]:
    if args.codes:
        return list(args.codes)
    return [line.strip() for line in sys.stdin if line.strip()]


def _cmd_canon(args) -> int:
    for code in _input_codes(args):
        canon = canonical_form(parse(code))
        _emit(args, canon, lambda: {"canonical": canon, "input": code})
    return 0


def _cmd_reduce(args) -> int:
    codes = _input_codes(args)
    if args.trace and len(codes) != 1:
        raise ValueError("--trace needs exactly one input code")
    for code in codes:
        minimal, trace = monotone_reduce(parse(code), args.limits)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace.to_json() + "\n")
        min_code = serialize(minimal)
        _emit(args, f"{min_code} cr={minimal.n}", lambda: {
            "cr": minimal.n,
            "input": code,
            "minimal": min_code,
            "steps": len(trace.steps),
            "u": str(u_polynomial(minimal)),
        })
    return 0


def _cmd_equiv(args) -> int:
    d1, d2 = parse(args.code1), parse(args.code2)
    if args.trace:
        same, cert = equivalent(d1, d2, args.limits, with_certificate=True)
        if same and cert is not None:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(cert.to_json() + "\n")
    else:
        same = equivalent(d1, d2, args.limits)
    text = "equivalent" if same else "not-equivalent"
    _emit(args, text, lambda: {"equivalent": same, "inputs": [args.code1, args.code2]})
    return 0 if same else 1


def _split_record(gap_a, gap_b, sides) -> dict:
    return {"gap_a": gap_a, "gap_b": gap_b, "sides": list(sides)}


def _cmd_prime(args) -> int:
    for code in _input_codes(args):
        v = is_composite(parse(code), args.limits)
        m, w = v.minimal, v.witness
        min_code = serialize(m)
        text = f"{v.verdict} minimal={min_code} cr={m.n}"
        if w is not None:
            text += f" split=({w.gap_a},{w.gap_b}) sides={w.side_sizes[0]},{w.side_sizes[1]}"
        if args.all_splits:
            # the nontrivial splits, and a same-gap row (g, g) at every gap
            splits = sorted(
                [(s.gap_a, s.gap_b, s.side_sizes) for s in find_splits(m)]
                + [(g, g, (0, m.n)) for g in range(max(m.size, 1))]
            )
            for ga, gb, sides in splits:
                text += f"\nsplit gap_a={ga} gap_b={gb} sides={sides[0]},{sides[1]}"
        _emit(args, text, lambda: {
            "cr": m.n,
            "input": code,
            "minimal": min_code,
            "verdict": v.verdict,
            "witness": None if w is None else _split_record(w.gap_a, w.gap_b, w.side_sizes),
            **({"splits": [_split_record(*s) for s in splits]} if args.all_splits else {}),
        })
    return 0


def _cmd_csum(args) -> int:
    s = connected_sum(
        BasedDiagram(parse(args.code1), args.gap1),
        BasedDiagram(parse(args.code2), args.gap2),
    )
    code = serialize(s)
    _emit(args, code, lambda: {"code": code, "canonical": canonical_form(s)})
    return 0


def _cmd_permutants(args) -> int:
    ps = permutant_set(parse(args.code1), parse(args.code2))
    lines = [f"members={len(ps.members)}"]
    for code in ps.members:
        src = ";".join(f"{g1},{g2}" for g1, g2 in ps.sources[code])
        lines.append(f"{code} from={src}")
    _emit(args, "\n".join(lines), lambda: {
        "inputs": list(ps.input_codes),
        "members": list(ps.members),
        "sources": {c: [list(p) for p in pairs] for c, pairs in ps.sources.items()},
    })
    return 0


def _cmd_verify_superadd(args) -> int:
    report = verify_superadditivity(
        parse(args.code1),
        parse(args.code2),
        args.limits,
        seed=args.seed,
        sample_size=args.sample_size,
    )
    lines = [
        f"cr1={report.cr1} cr2={report.cr2} "
        f"inputs-minimal={str(report.inputs_minimal).lower()} "
        f"exhaustive={str(report.exhaustive).lower()}"
    ]
    for r in report.rows:
        lines.append(
            f"member code={r.code} cr={r.cr} class={r.class_id} "
            f"minimal={str(r.minimal).lower()}"
        )
    lines.append(
        f"classes={report.distinct_classes} "
        f"inequality-violations={len(report.inequality_violations)} "
        f"equality-violations={len(report.equality_violations)}"
    )
    _emit(args, "\n".join(lines), lambda: {
        "cr1": report.cr1,
        "cr2": report.cr2,
        "distinct_classes": report.distinct_classes,
        "equality_violations": list(report.equality_violations),
        "exhaustive": report.exhaustive,
        "inequality_violations": list(report.inequality_violations),
        "inputs": list(report.input_codes),
        "inputs_minimal": report.inputs_minimal,
        "members": [
            {"class": r.class_id, "code": r.code, "cr": r.cr, "minimal": r.minimal}
            for r in report.rows
        ],
        "ok": report.ok,
    })
    return 0 if report.ok else 1


def _cmd_tabulate(args) -> int:
    # Each record's stdout form goes to an anonymous temp file, copied to
    # stdout after the last record, so an orbit budget error leaves stdout
    # empty; with --out the records pass on to write_catalog, which renames
    # its file into place after the last one.  The JSON form has sorted
    # keys, so "records" comes last: the object with no records up to the
    # closing "]}", each record, "]}".
    as_json = args.format == "json"
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as shown:

        def shown_records():
            if as_json:
                shown.write(_json_text({"n": args.n, "quotient": "oriented", "records": []})[:-2])
            else:
                shown.write(_header(args.n))
            sep = ""
            for r in _records(args.n, args.limits):
                if as_json:
                    shown.write(sep + _json_text(_json_record(r)))
                    sep = ","
                else:
                    shown.write(_line(r))
                yield r
            if as_json:
                shown.write("]}\n")

        if args.out is None:
            for _ in shown_records():
                pass
        else:
            write_catalog(shown_records(), args.out, args.n)
        shown.seek(0)
        shutil.copyfileobj(shown, sys.stdout)
    return 0


def _cmd_replay(args) -> int:
    with open(args.tracefile, encoding="utf-8") as fh:
        trace = MoveTrace.from_json(fh.read())
    start = canonical_form(parse(args.code))
    if start != trace.start:
        print(f"trace starts at {trace.start!r}, not {start!r}", file=sys.stderr)
        return 1
    try:
        result = replay_trace(trace)
    except (SiteMismatch, TraceMismatch) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    end = serialize(result)
    _emit(args, end, lambda: {"end": end, "steps": len(trace.steps)})
    return 0


def _file_name(text: str) -> str:
    # an empty name would otherwise read as "no file given"
    if not text:
        raise argparse.ArgumentTypeError("empty file name")
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, exit 2, like other bad input
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS
    )
    common.add_argument("--max-orbit", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = _Parser(
        prog="flatknots",
        description="Flat virtual knots as Gauss diagrams: canonical forms, "
        "reduction, equivalence, primality, connected sums, tabulation.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", parents=[common], help="canonical code")
    p.add_argument("codes", nargs="*")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("reduce", parents=[common], help="minimal diagram and crossing number")
    p.add_argument("codes", nargs="*")
    p.add_argument("--trace", metavar="FILE", type=_file_name)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equiv", parents=[common], help="decide flat equivalence")
    p.add_argument("code1")
    p.add_argument("code2")
    p.add_argument("--trace", metavar="FILE", type=_file_name)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("prime", parents=[common], help="trivial / prime / composite verdict")
    p.add_argument("codes", nargs="*")
    p.add_argument("--all-splits", action="store_true")
    p.set_defaults(func=_cmd_prime)

    p = sub.add_parser("csum", parents=[common], help="connected sum at basepoint gaps")
    p.add_argument("code1")
    p.add_argument("gap1", type=int)
    p.add_argument("code2")
    p.add_argument("gap2", type=int)
    p.set_defaults(func=_cmd_csum)

    p = sub.add_parser("permutants", parents=[common], help="all connected sums over basepoints")
    p.add_argument("code1")
    p.add_argument("code2")
    p.set_defaults(func=_cmd_permutants)

    p = sub.add_parser(
        "verify-superadd", parents=[common], help="check crossing-number super-additivity"
    )
    p.add_argument("code1")
    p.add_argument("code2")
    p.add_argument("--sample-size", type=int, default=256)
    p.set_defaults(func=_cmd_verify_superadd)

    p = sub.add_parser("tabulate", parents=[common], help="classify all n-arrow diagrams")
    p.add_argument("n", type=int)
    p.add_argument("--out", metavar="FILE", type=_file_name)
    p.set_defaults(func=_cmd_tabulate)

    p = sub.add_parser("replay", parents=[common], help="replay and validate a trace file")
    p.add_argument("code")
    p.add_argument("tracefile")
    p.set_defaults(func=_cmd_replay)

    return parser


_GLOBAL_DEFAULTS = {"format": "text", "max_orbit": DEFAULT_LIMITS.max_nodes, "seed": 0}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # global flags are valid before or after the subcommand; both copies
        # default to SUPPRESS, so whichever was given wins and the fallback
        # lands here
        for dest, default in _GLOBAL_DEFAULTS.items():
            if not hasattr(args, dest):
                setattr(args, dest, default)
        # checked here, not by the commands that use it, so every command
        # rejects a bad budget alike
        args.limits = OrbitLimits(max_nodes=args.max_orbit)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the input was fine, so not 2, and 1 means "no" to equiv; the
        # unwritten output goes to os.devnull, or the exit flush raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, OrbitBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
