"""Repeated ``flowcomplex.cli.main`` calls in one process behave like fresh
``python -m flowcomplex.cli`` runs: the shared parser carries nothing from
one call to the next."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from flowcomplex import build, cli, emit

SUBCOMMANDS = ("validate", "classify", "orbit", "gallery", "verify", "export-dot")
BROKEN = "surface genus=0 orientable=true boundary=0\nsing ??? point kind=center\n"


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
