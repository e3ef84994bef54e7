"""Command-line surface.

Exit codes: 0 success, 1 validation violations (or other domain errors,
reported by ``main`` as ``error: ...``), 2 parse errors in the input
document, 3 a theorem violation found by ``verify``.  Unknown flags are
argparse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .classify import classification_report
from .dot import export_dot
from .gallery import build, gallery_names
from .model import FlowComplex, FlowComplexError, validate
from .orbits import Direction, Expansion, extended_orbit
from .textio import ParseErrors, emit, parse, parse_int
from .theorems import THEOREM_NAMES, TheoremStatus, verify_theorems

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_THEOREM = 3


def _load(path: str) -> FlowComplex:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    try:
        return parse(text)
    except ParseErrors as exc:
        for err in exc.errors:
            print(f"{path}:{err}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_valid(path: str) -> FlowComplex:
    fc = _load(path)
    report = validate(fc)
    if not report.ok:
        for v in report.violations:
            print(f"{v.id}: {v.rule} ({v.detail})", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return fc


def _cmd_validate(args: argparse.Namespace) -> int:
    fc = _load(args.file)
    report = validate(fc)
    if report.ok:
        print("ok")
        return EXIT_OK
    for v in report.violations:
        print(f"{v.id}: {v.rule} ({v.detail})")
    return EXIT_INVALID


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classification_report(_load_valid(args.file))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    for name in report.FIELDS:
        verdict = getattr(report, name)
        line = f"{name}: {str(verdict.verdict).lower()}"
        if verdict.witness is not None:
            line += f"  [{verdict.witness.describe()}]"
        print(line)
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    fc = _load_valid(args.file)
    direction = Direction(args.direction)
    if args.generalized:
        ext = Expansion.generalized(fc).orbit(args.start, direction)
    else:
        ext = extended_orbit(fc, args.start, direction)
    print(f"start: {ext.start}")
    print(f"direction: {direction.value}")
    print(f"depth: {ext.depth}")
    print(f"self_readded: {str(ext.self_readded).lower()}")
    for mid in sorted(ext.members):
        rnd = ext.added_round[mid]
        tag = "seed" if rnd == 0 else f"round {rnd}"
        print(f"  {mid}  ({tag})")
    return EXIT_OK


def _cmd_gallery(args: argparse.Namespace) -> int:
    params: dict[str, int] = {}
    for item in args.param or []:
        if "=" not in item:
            print(f"error: --param expects k=v, got {item!r}", file=sys.stderr)
            return EXIT_INVALID
        key, value = item.split("=", 1)
        try:
            params[key] = parse_int(value)
        except ValueError:
            print(f"error: parameter {key} must be an integer", file=sys.stderr)
            return EXIT_INVALID
    fc = build(args.name, params)
    try:
        Path(args.out).write_text(emit(fc), encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    fc = _load_valid(args.file)
    if args.theorems == "all":
        names = None
    else:
        names = [t.strip() for t in args.theorems.split(",") if t.strip()]
    results = verify_theorems(fc, names)
    if args.json:
        payload = [
            {"theorem": r.theorem, "status": r.status.value, "detail": r.detail} for r in results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            line = f"{r.theorem}: {r.status.value}"
            if r.detail:
                line += f"  ({r.detail})"
            print(line)
    if any(r.status is TheoremStatus.VIOLATION for r in results):
        return EXIT_THEOREM
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    fc = _load_valid(args.file)
    overlay = None if args.overlay is None else extended_orbit(fc, args.overlay, Direction.BOTH)
    print(export_dot(fc, overlay), end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="flowcomplex",
        description="Validate, classify and inspect symbolic surface-flow complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("classify", help="decide the full property hierarchy")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("orbit", help="compute an extended orbit")
    p.add_argument("file")
    p.add_argument("--start", required=True)
    p.add_argument("--direction", choices=sorted(d.value for d in Direction), default="both")
    p.add_argument("--generalized", action="store_true")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("gallery", help="write a reference flow to a file")
    p.add_argument("--name", required=True, choices=sorted(gallery_names()))
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("verify", help="run the theorem harness")
    p.add_argument("file")
    p.add_argument("--theorems", default="all", help="all or a comma-separated list of: " + ", ".join(THEOREM_NAMES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export-dot", help="emit a DOT digraph")
    p.add_argument("file")
    p.add_argument("--overlay", metavar="ID")
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FlowComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
