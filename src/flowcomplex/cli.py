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
from typing import NamedTuple

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
    # bytes decoded in one call: a text-mode file would build a wrapper and
    # an incremental decoder, and ``parse`` splits at every line ending
    # itself, so text mode's newline translation changes no line
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8-sig")
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
        print(*report.violations, sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return fc


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_load(args.file))
    if report.ok:
        print("ok")
        return EXIT_OK
    print(*report.violations, sep="\n")
    return EXIT_INVALID


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classification_report(_load_valid(args.file))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    lines = []
    for name in report.FIELDS:
        verdict = getattr(report, name)
        line = f"{name}: {str(verdict.verdict).lower()}"
        if verdict.witness is not None:
            line += f"  [{verdict.witness.describe()}]"
        lines.append(line)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    fc = _load_valid(args.file)
    direction = Direction(args.direction)
    if args.generalized:
        ext = Expansion.generalized(fc).orbit(args.start, direction)
    else:
        ext = extended_orbit(fc, args.start, direction)
    lines = [
        f"start: {ext.start}",
        f"direction: {direction.value}",
        f"depth: {ext.depth}",
        f"self_readded: {str(ext.self_readded).lower()}",
    ]
    for mid in sorted(ext.members):
        rnd = ext.added_round[mid]
        tag = "seed" if rnd == 0 else f"round {rnd}"
        lines.append(f"  {mid}  ({tag})")
    print("\n".join(lines))
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


# ``Enum.value`` is a Python-level property on CPython 3.11
_STATUS_TEXT = {status: status.value for status in TheoremStatus}


def _cmd_verify(args: argparse.Namespace) -> int:
    fc = _load_valid(args.file)
    if args.theorems == "all":
        names = None
    else:
        names = [t.strip() for t in args.theorems.split(",") if t.strip()]
    results = verify_theorems(fc, names)
    if args.json:
        payload = [
            {"theorem": r.theorem, "status": _STATUS_TEXT[r.status], "detail": r.detail} for r in results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        # verify_theorems returns at least one result
        lines = []
        for r in results:
            line = f"{r.theorem}: {_STATUS_TEXT[r.status]}"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
        print("\n".join(lines))
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
    later one (parsing does not change it).  Its ``grammars`` attribute maps
    each command that ``_read_direct`` reads to that command's
    ``_Grammar``."""
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

    grammars = {name: _grammar(command) for name, command in sub.choices.items()}
    parser.grammars = {name: grammar for name, grammar in grammars.items() if grammar is not None}
    return parser


class _Grammar(NamedTuple):
    """One command's arguments as ``_read_direct`` reads them: its one
    positional's action, each option string's action, the dests a call must
    give, and the namespace values before any argument is read (each
    action's default in action order, then the parser's ``set_defaults``),
    as argparse fills them."""

    positional: argparse.Action
    options: dict[str, argparse.Action]
    required: frozenset[str]
    defaults: dict[str, object]


def _grammar(parser: argparse.ArgumentParser) -> _Grammar | None:
    """The grammar of a command's parser, read from its own actions, or
    ``None`` when it has an action other than help, one positional, plain
    stores of one value and ``store_true``."""
    options, defaults, positionals = {}, {}, []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if type(action) is argparse._StoreAction and action.nargs is None and action.type is None:
            if not action.option_strings:
                positionals.append(action)
        elif type(action) is not argparse._StoreTrueAction:
            return None
        options.update(dict.fromkeys(action.option_strings, action))
        defaults[action.dest] = action.default
    if len(positionals) != 1:
        return None
    required = frozenset(action.dest for action in parser._actions if action.required)
    return _Grammar(positionals[0], options, required, {**defaults, **parser._defaults})


def _read_direct(grammars: dict, argv: list) -> argparse.Namespace | None:
    """The namespace argparse builds for a well-formed call, read without
    argparse, or ``None`` for any other call.  A well-formed call is a
    command of ``grammars`` followed by its one positional and its own
    options, each option a token of its own given at most once, with no
    token that is not a ``str`` and no value or positional starting with
    ``-``.  A ``--opt=value`` form, an abbreviation, ``--``, a help flag or
    a value outside an option's choices is not well-formed."""
    if not argv or type(argv[0]) is not str:
        return None
    grammar = grammars.get(argv[0])
    if grammar is None:
        return None
    options = grammar.options
    values = dict(grammar.defaults)
    given = set()
    tokens = iter(argv)
    next(tokens)
    for token in tokens:
        if type(token) is not str:
            return None
        if token[:1] != "-":
            action = grammar.positional
        else:
            action = options.get(token)
            if action is None:
                return None
            if action.nargs == 0:
                token = action.const
            else:
                token = next(tokens, None)
                if type(token) is not str or token[:1] == "-":
                    return None
        if action.choices is not None and token not in action.choices:
            return None
        dest = action.dest
        if dest in given:
            return None
        given.add(dest)
        values[dest] = token
    if not grammar.required <= given:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns.  ``_read_direct``
    reads a well-formed call of a command it has a grammar for; every other
    call goes through the full parser, which prints every help text, usage
    line and error.  An argument that is not a ``str`` is an error of the
    parser's own form (argparse would raise ``TypeError`` or read it as a
    command name)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_direct(parser.grammars, argv)
    if args is not None:
        return args
    for arg in argv:
        if not isinstance(arg, str):
            parser.error(f"argument {arg!r} is not a string")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except FlowComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
