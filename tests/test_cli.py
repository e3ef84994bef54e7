"""Repeated ``flowcomplex.cli.main`` calls in one process behave like fresh
``python -m flowcomplex.cli`` runs: the shared parser carries nothing from
one call to the next."""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomplex import FlowComplex, PreconditionError, build, classification_report, cli, emit, extended_orbit, parse, validate, verify_theorems
from flowcomplex import model
from flowcomplex.textio import ParseErrors

SUBCOMMANDS = ("validate", "classify", "orbit", "gallery", "verify", "export-dot")
BROKEN = "surface genus=0 orientable=true boundary=0\nsing ??? point kind=center\n"
# a family boundary naming three undeclared ids: a set-valued field
GHOSTS = """\
surface genus=0 orientable=true boundary=0
sing c1 point kind=center
sing c2 point kind=center
family f1 kind=annulus b0=c1,ghost1,ghost2,ghost3 b1=c2
"""


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _fresh_parser(argv):
    """What a newly built parser prints for ``argv`` (a help request)."""
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            cli.build_parser.__wrapped__().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 0
    return out.getvalue()


def test_repeated_main_calls_match_subprocess_runs(tmp_path, monkeypatch):
    # argparse wraps usage lines to the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    good = tmp_path / "hd.fc"
    good.write_text(emit(build("halfdisk_sphere", None)))
    broken = tmp_path / "broken.fc"
    broken.write_text(BROKEN)
    calls = [
        ["classify", str(good)],
        ["verify", str(good), "--json"],
        ["orbit", str(good), "--start", "rp", "--direction", "fwd"],
        ["orbit", str(good), "--start", "rp"],
        ["classify", str(good), "--bogus"],
        ["classify", str(broken)],
        ["classify", str(good)],
    ]
    results = [_in_process(argv) for argv in calls]
    for argv, (rc, out, err) in zip(calls, results):
        proc = subprocess.run(
            [sys.executable, "-m", "flowcomplex.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [rc for rc, _, _ in results] == [0, 0, 0, 0, 2, 2, 0]
    assert "direction: fwd\n" in results[2][1]
    assert "direction: both\n" in results[3][1]
    assert "unrecognized arguments: --bogus" in results[4][2]
    assert "bad identifier" in results[5][2]
    assert results[6] == results[0]


def test_shared_parser_prints_the_help_of_a_fresh_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    _in_process(["orbit", "--bogus"])
    for argv in (["--help"], *([name, "--help"] for name in SUBCOMMANDS)):
        rc, out, err = _in_process(argv)
        assert (rc, err) == (0, ""), argv
        assert out == _fresh_parser(argv), argv


def _outcome(call, arg):
    """What ``call(arg)`` gives: its result, exit code or exception, with
    everything printed on the way."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(arg)
        except SystemExit as exc:
            result = ("exit", exc.code)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, out.getvalue(), err.getvalue()


def test_main_parses_as_the_full_parser_does(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    doc, out = str(tmp_path / "hd.fc"), str(tmp_path / "out.fc")
    Path(doc).write_text(emit(build("halfdisk_sphere", None)))
    # well-formed calls, which the direct reader reads without argparse
    direct = [
        ["validate", doc],
        ["classify", doc],
        ["classify", doc, "--json"],
        ["classify", "--json", doc],
        ["classify", ""],
        ["orbit", doc, "--start", "rp"],
        ["orbit", doc, "--start", ""],
        ["orbit", "--generalized", "--start", "rp", "--direction", "bwd", doc],
        ["verify", doc, "--theorems", "all", "--json"],
        ["export-dot", doc],
        ["export-dot", doc, "--overlay", "rp"],
    ]
    valid = [
        *direct,
        ["classify", "-"],
        ["orbit", doc, "--start", "-1"],
        ["orbit", doc, "--start=rp", "--direction", "fwd", "--generalized"],
        ["orbit", doc, "--gen", "--start", "rp"],
        ["orbit", doc, "--start", "rp", "--generalized", "--generalized"],
        ["orbit", doc, "--start", "a", "--start", "b"],
        ["orbit", "--start", "rp", "--", doc],
        ["classify", "--", doc],
        ["gallery", "--name", "comb_torus", "--param", "n=3", "--param", "n=4", "--out", out],
    ]
    rejected = [
        ["orbit", doc],
        ["classify"],
        ["classify", "-x"],
        ["classify", doc, doc],
        ["gallery", "--out", out],
        ["orbit", doc, "--start", "rp", "--direction", "up"],
        ["orbit", doc, "--start", "--generalized"],
        ["orbit", doc, "--start"],
        ["classify", doc, "--bogus"],
        ["classify", doc, "--", "extra"],
        ["orbit", doc, "--start", "rp", "-z", "1"],
        ["--json", "classify", doc],
        ["-h"],
        ["--help", "orbit"],
        *([name, "-h"] for name in SUBCOMMANDS),
        ["verify", doc, "--help"],
        [],
        ["bogus", doc],
    ]
    fresh = cli.build_parser.__wrapped__()
    for argv in valid:
        for given in (argv, tuple(argv)):
            got = _outcome(cli._parse_args, given)
            assert got == _outcome(fresh.parse_args, given), argv
            assert isinstance(got[0], argparse.Namespace) and got[1:] == ("", ""), argv
            assert list(vars(got[0])) == list(vars(fresh.parse_args(given))), argv
    for argv in rejected:
        want = _outcome(fresh.parse_args, argv)
        assert not isinstance(want[0], argparse.Namespace), argv
        assert _outcome(cli._parse_args, argv) == want, argv
        assert _outcome(cli._parse_args, tuple(argv)) == want, argv
        if want[0][0] == "exit":
            assert _in_process(argv) == (want[0][1], *want[1:]), argv
    grammars = cli.build_parser().grammars
    for argv in valid + rejected:
        got = cli._read_direct(grammars, argv)
        assert (got is not None) == (argv in direct), argv
    for argv in ([], ["orbit", doc, "--start", "rp"], ["--help"]):
        monkeypatch.setattr(sys, "argv", ["flowcomplex", *argv])
        assert _outcome(cli._parse_args, None) == _outcome(fresh.parse_args, None), argv


def test_an_argument_that_is_not_a_string_is_a_usage_error(tmp_path, monkeypatch):
    """argparse raises a bare ``TypeError`` for most of these and reads
    ``None`` as a command name; the CLI prints one usage error instead."""
    monkeypatch.setenv("COLUMNS", "80")
    doc = tmp_path / "hd.fc"
    doc.write_text(emit(build("halfdisk_sphere", None)))
    usage = cli.build_parser.__wrapped__().format_usage()
    for argv, bad in (
        (["classify", doc], doc),
        ([Path("classify"), str(doc)], Path("classify")),
        (["orbit", str(doc), "--start", 5], 5),
        ([None, str(doc)], None),
        ([["classify"], str(doc)], ["classify"]),
    ):
        err = f"{usage}flowcomplex: error: argument {bad!r} is not a string\n"
        assert _outcome(cli._parse_args, argv) == (("exit", 2), "", err), argv
        assert _in_process(argv) == (2, "", err), argv


_OPTIONS = {
    "validate": (),
    "classify": ("--json",),
    "orbit": ("--start", "--direction", "--generalized"),
    "gallery": ("--name", "--param", "--out"),
    "verify": ("--theorems", "--json"),
    "export-dot": ("--overlay",),
}
_VALUES = st.sampled_from(("hd.fc", "rp", "fwd", "both", "up", "all", "comb_torus", "n=3"))
_ODD = st.sampled_from(("", "-", "-1", "--", "-x", "-h", "--help", "--start=rp", "--gen", "--bogus", "x y", "é")) | st.text(max_size=4)


@st.composite
def _argv(draw):
    """A command (now and then an odd string), up to two positionals, and
    around them pieces that are mostly that command's options, each with or
    without a value: many of these lists are well-formed calls."""
    command = draw(st.sampled_from((*SUBCOMMANDS, None)))
    if command is None:
        command = draw(_ODD)
    options = st.sampled_from(_OPTIONS.get(command) or ("--json",))
    piece = st.sampled_from((st.tuples(options, _VALUES), st.tuples(options, _VALUES), st.tuples(options), st.tuples(_ODD))).flatmap(lambda kind: kind)
    pieces = draw(st.lists(piece, max_size=3))
    pieces.insert(draw(st.integers(0, len(pieces))), draw(st.lists(_VALUES, min_size=1, max_size=2) | st.lists(_ODD, max_size=1)))
    return [command, *(token for tokens in pieces for token in tokens)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_any_argv_parses_as_the_full_parser_does(argv):
    fresh = cli.build_parser.__wrapped__()
    assert _outcome(cli._parse_args, argv) == _outcome(fresh.parse_args, argv)


def _text_load(path):
    """``cli._load`` reading through ``Path.read_text``: the reference for its
    read of bytes."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(cli.EXIT_INVALID)
    try:
        return parse(text)
    except ParseErrors as exc:
        for err in exc.errors:
            print(f"{path}:{err}", file=sys.stderr)
        raise SystemExit(cli.EXIT_PARSE)


def _documents():
    """File contents that the text and binary readers could tell apart."""
    doc = emit(build("halfdisk_sphere", None))
    broken = BROKEN + "sing c1 point kind=centre\n"
    # a comment long enough to push a byte past the first 8 KiB
    padded = doc + "# " + "x" * 9000 + "\n"
    return {
        "crlf": doc.replace("\n", "\r\n").encode(),
        "lone-cr": doc.replace("\n", "\r").encode(),
        "bom-crlf": b"\xef\xbb\xbf" + doc.replace("\n", "\r\n").encode(),
        "broken-crlf": broken.replace("\n", "\r\n").encode(),
        "broken-lone-cr": broken.replace("\n", "\r").encode(),
        "bom-broken-mixed": b"\xef\xbb\xbf" + broken.replace("\n", "\r", 1).encode(),
        "bad-byte-early": doc.encode()[:60] + b"\xe9" + doc.encode()[60:],
        "bad-byte-late": padded.encode() + b"# caf\xe9\n",
        "bom-bad-byte-late": b"\xef\xbb\xbf" + padded.encode() + b"\xff\n",
        "truncated-sequence": doc.encode() + b"\xe2\x82",
    }


@pytest.mark.parametrize("name", sorted(_documents()))
def test_the_binary_read_loads_what_a_text_read_loads(tmp_path, name):
    path = tmp_path / f"{name}.fc"
    path.write_bytes(_documents()[name])
    got = _outcome(cli._load, str(path))
    assert got == _outcome(_text_load, str(path))
    assert isinstance(got[0], FlowComplex) == (name in {"crlf", "lone-cr", "bom-crlf"})


def test_an_unreadable_path_gives_one_error_line_naming_it(tmp_path):
    for path in (tmp_path / "missing.fc", tmp_path):
        got = _outcome(cli._load, str(path))
        assert got == _outcome(_text_load, str(path)) and got[0] == ("exit", 1), path
        assert got[2].startswith("error: [Errno ") and got[2].endswith(f": '{path}'\n"), path
    # the error names the path as given; ``Path`` would normalise it
    given = f"{tmp_path}//missing.fc"
    assert _outcome(cli._load, given) == (("exit", 1), "", f"error: [Errno 2] No such file or directory: '{given}'\n")


def test_domain_errors_print_one_line_and_exit_1(tmp_path):
    good = tmp_path / "hd.fc"
    good.write_text(emit(build("halfdisk_sphere", None)))
    undecodable = tmp_path / "latin1.fc"
    undecodable.write_bytes(b"surface genus=0 orientable=true boundary=0\n# caf\xe9\n")
    cases = [
        (
            ["classify", str(undecodable)],
            "error: 'utf-8' codec can't decode byte 0xe9 in position 48: invalid continuation byte\n",
        ),
        (["verify", str(tmp_path / "missing.fc")], f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.fc'}'\n"),
        (["orbit", str(good), "--start", "nope"], "error: unknown id 'nope'\n"),
        (["orbit", str(good), "--start", "nope", "--generalized"], "error: unknown id 'nope'\n"),
        (["export-dot", str(good), "--overlay", "nope"], "error: unknown id 'nope'\n"),
        (["verify", str(good), "--theorems", "bogus"], "error: unknown theorem names: ['bogus']\n"),
        (["verify", str(good), "--theorems", ","], "error: no theorem names given\n"),
        (["verify", str(good), "--theorems", " "], "error: no theorem names given\n"),
        (
            ["gallery", "--name", "halfdisk_sphere", "--param", "zz=3", "--out", str(tmp_path / "out.fc")],
            "error: halfdisk_sphere does not take parameters ['zz']\n",
        ),
        (
            ["gallery", "--name", "comb_torus", "--out", str(tmp_path)],
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n",
        ),
        # a parameter is ASCII decimal, as in a document
        (
            ["gallery", "--name", "comb_torus", "--param", "n=1_0", "--out", str(tmp_path / "out.fc")],
            "error: parameter n must be an integer\n",
        ),
        (
            ["gallery", "--name", "comb_torus", "--param", "n=+3", "--out", str(tmp_path / "out.fc")],
            "error: parameter n must be an integer\n",
        ),
        (
            ["gallery", "--name", "comb_torus", "--param", "n=-1", "--out", str(tmp_path / "out.fc")],
            "error: comb_torus needs n >= 2\n",
        ),
    ]
    for argv, err in cases:
        assert _in_process(argv) == (1, "", err), argv


def test_a_non_orientable_surface_of_genus_zero_is_a_parse_error(tmp_path):
    doc = tmp_path / "crosscap.fc"
    doc.write_text("surface genus=0 orientable=false boundary=1\n")
    err = f"{doc}:line 1, column 15: a non-orientable surface has genus at least 1\n"
    for command in ("validate", "classify"):
        assert _in_process([command, str(doc)]) == (2, "", err), command


def test_a_file_with_a_byte_order_mark_loads(tmp_path):
    doc = tmp_path / "bom.fc"
    doc.write_bytes(b"\xef\xbb\xbf" + emit(build("halfdisk_sphere", None)).encode("utf-8"))
    assert _in_process(["validate", str(doc)]) == (0, "ok\n", "")


# two centers inside one periodic orbit; nothing outside {n} accumulates on
# it and leaves it, and nothing accumulates on it at all
TWO_CENTERS = """\
surface genus=0 orientable=true boundary=0
sing n point kind=center
sing s point kind=center
orbit g periodic
family fn kind=annulus b0=g b1=n shrinks1=true
family fs kind=annulus b0=g b1=s shrinks1=true
saddleset bad members=n isolated=false
"""


def test_every_command_rejects_a_bad_saddle_set_declaration_with_the_same_lines(tmp_path):
    """A declared saddle set is judged by ``validate`` alone: each command that
    reads a document exits 1 with the same violations, whichever analysis it
    would run."""
    halfdisk = emit(build("halfdisk_sphere", None))
    documents = {
        "two_centers": (
            TWO_CENTERS,
            "n",
            [
                "bad: saddleset-not-saddle-set (nothing outside the set accumulates on it and leaves it)",
                "bad: saddleset-isolated-flag (declared isolated=false, but no minimal sets accumulate on it)",
            ],
        ),
        "halfdisk_flag": (
            halfdisk.replace("saddleset ssm members=pm isolated=true", "saddleset ssm members=pm isolated=false"),
            "rp",
            ["ssm: saddleset-isolated-flag (declared isolated=false, but no minimal sets accumulate on it)"],
        ),
        "not_invariant": (
            emit(build("genus2_mixed", None)) + "saddleset q members=c1 isolated=true\n",
            "c1",
            ["q: saddleset-not-invariant (closure of c1 escapes the declared set)"],
        ),
    }
    for name, (text, start, lines) in documents.items():
        path = tmp_path / f"{name}.fc"
        path.write_text(text)
        report = "".join(f"{line}\n" for line in lines)
        assert _in_process(["validate", str(path)]) == (1, report, ""), name
        for argv in (["classify"], ["verify"], ["orbit", "--start", start], ["orbit", "--start", start, "--generalized"], ["export-dot"]):
            assert _in_process([argv[0], str(path), *argv[1:]]) == (1, "", report), (name, argv)


def test_each_command_validates_a_document_once(tmp_path, monkeypatch):
    """The CLI's ``validate`` and every analysis after it read the one report
    kept with the complex; so do a library caller's."""
    runs = []
    check = model._validate

    def counted(fc):
        runs.append(fc)
        return check(fc)

    monkeypatch.setattr(model, "_validate", counted)
    path = tmp_path / "hd.fc"
    path.write_text(emit(build("halfdisk_sphere", None)))
    # halfdisk_sphere declares admitted sets: the generalized engine is a second one
    commands = (["classify"], ["verify"], ["orbit", "--start", "rp"], ["orbit", "--start", "rp", "--generalized"], ["export-dot", "--overlay", "rp"])
    for argv in commands:
        runs.clear()
        assert _in_process([argv[0], str(path), *argv[1:]])[0] == 0, argv
        assert len(runs) == 1, argv
    runs.clear()
    fc = parse(path.read_text())
    assert validate(fc).ok
    classification_report(fc)
    verify_theorems(fc)
    assert runs == [fc]


def test_a_library_caller_is_refused_with_the_lines_validate_prints(tmp_path):
    documents = {"ghosts": GHOSTS, "two_centers": TWO_CENTERS, "broken_flag": emit(build("halfdisk_sphere", None)).replace("isolated=true", "isolated=false")}
    for name, text in documents.items():
        path = tmp_path / f"{name}.fc"
        path.write_text(text)
        rc, out, _ = _in_process(["validate", str(path)])
        assert rc == 1 and out, name
        for analyse in (classification_report, verify_theorems, lambda fc: extended_orbit(fc, "c1")):
            with pytest.raises(PreconditionError) as info:
                analyse(parse(text))
            assert str(info.value).splitlines()[1:] == out.splitlines(), name


def _run_with_hash_seed(argv, seed):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcomplex.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": str(seed)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_outputs_do_not_depend_on_the_string_hash(tmp_path):
    ghosts = tmp_path / "ghosts.fc"
    ghosts.write_text(GHOSTS)
    doc = tmp_path / "dc.fc"
    doc.write_text(emit(build("double_center_sphere", None)))
    cases = [
        (["validate", str(ghosts)], (1, 2, 3, 4)),
        (["classify", str(doc), "--json"], (1, 2)),
        (["verify", str(doc), "--json"], (1, 2)),
    ]
    results = {}
    for argv, seeds in cases:
        outputs = {_run_with_hash_seed(argv, seed) for seed in seeds}
        assert len(outputs) == 1, argv
        results[argv[0]] = outputs.pop()
    rc, out, _ = results["validate"]
    assert rc == 1
    assert [line.split("'")[1] for line in out.splitlines() if "unknown id" in line] == ["ghost1", "ghost2", "ghost3"]
