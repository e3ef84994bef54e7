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


def test_a_file_with_a_byte_order_mark_loads(tmp_path):
    doc = tmp_path / "bom.fc"
    doc.write_bytes(b"\xef\xbb\xbf" + emit(build("halfdisk_sphere", None)).encode("utf-8"))
    assert _in_process(["validate", str(doc)]) == (0, "ok\n", "")


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
