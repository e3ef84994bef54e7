import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomplex import (
    Direction,
    ParseErrors,
    build,
    emit,
    export_dot,
    extended_orbit,
    parse,
    random_complex,
)

MINIMAL = """\
surface genus=0 orientable=true boundary=0
sing c1 point kind=center
sing c2 point kind=center
family f kind=annulus b0=c1 b1=c2 shrinks0=true shrinks1=true
"""


def test_minimal_document_parses():
    fc = parse(MINIMAL)
    assert fc.surface.genus == 0
    assert set(fc.family_by_id) == {"f"}
    assert fc.family_by_id["f"].shrinks0 and fc.family_by_id["f"].shrinks1


def test_round_trip_on_gallery(gallery_complexes):
    for name, fc in gallery_complexes.items():
        text = emit(fc)
        again = parse(text)
        assert again == fc, name
        assert emit(again) == text, name


def test_round_trip_on_random_complexes():
    for seed in range(250):
        fc = random_complex(seed)
        assert parse(emit(fc)) == fc, seed


def test_comments_and_order_are_free():
    fc = build("sphere_meridian", None)
    lines = emit(fc).splitlines()
    shuffled = [lines[0]] + ["# a comment", ""] + list(reversed(lines[1:]))
    assert parse("\n".join(shuffled)) == fc


def test_duplicate_id_is_a_parse_error():
    text = MINIMAL + "sing c1 point kind=center\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("duplicate id 'c1'" in e.message and e.line == 5 for e in exc.value.errors)


def test_all_syntax_errors_collected_in_one_pass():
    text = """\
surface genus=0 orientable=true boundary=0
sing a point
orbit b wiggly
family f kind=annulus b0=a
accum z kind=nope samples=a target=b
"""
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    lines = sorted({e.line for e in exc.value.errors})
    assert lines == [2, 3, 4, 5]
    for err in exc.value.errors:
        assert err.column >= 1


@pytest.mark.parametrize(
    "record, message, column",
    [
        ("orbit os proper alpha=sing:s omega=s", "limit reference needs a sing:/orbit:/set: prefix, got 's'", 36),
        ("sing point point kind=point", "unknown point kind 'point'", 23),
    ],
)
def test_error_column_points_at_the_offending_value_not_an_earlier_match(record, message, column):
    with pytest.raises(ParseErrors) as exc:
        parse(f"surface genus=0 orientable=true boundary=0\n{record}\n")
    [err] = exc.value.errors
    assert err.message.startswith(message)
    assert (err.line, err.column) == (2, column)


def test_surface_must_come_first():
    with pytest.raises(ParseErrors) as exc:
        parse("sing c point kind=center\nsurface genus=0 orientable=true boundary=0\n")
    assert any("first record" in e.message for e in exc.value.errors)


def test_reference_errors_are_deferred_to_validation():
    text = """\
surface genus=1 orientable=true boundary=0
orbit m proper alpha=sing:ghost omega=sing:ghost
"""
    fc = parse(text)  # parses fine
    from flowcomplex import validate

    assert "unresolved-id" in validate(fc).rules()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_round_trip_property(seed):
    fc = random_complex(seed)
    assert parse(emit(fc)) == fc


def test_export_dot_plus_saddle(gallery_complexes):
    fc = gallery_complexes["plus_saddle"]
    dot = export_dot(fc)
    node_lines = [l for l in dot.splitlines() if "[shape=" in l]
    assert len(node_lines) >= 5
    saddle_edges = [l for l in dot.splitlines() if "->" in l and '"s"' in l]
    assert len(saddle_edges) == 4
    assert "penwidth" not in dot  # no overlay, no highlights


def test_export_dot_overlay_matches_members(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    ext = extended_orbit(fc, "c1", Direction.BOTH)
    dot = export_dot(fc, ext)
    highlighted = {
        line.strip().split('"')[1]
        for line in dot.splitlines()
        if "penwidth=3" in line
    }
    assert highlighted == set(ext.members)


def test_export_dot_deterministic(gallery_complexes):
    fc = gallery_complexes["comb_torus"]
    assert export_dot(fc) == export_dot(fc)


# -- command-line surface ------------------------------------------------------


def _run(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "flowcomplex.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_cli_validate_ok(tmp_path):
    path = tmp_path / "ok.fc"
    path.write_text(emit(build("genus2_mixed", None)))
    proc = _run(["validate", str(path)])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_cli_validate_violations_exit_1(tmp_path):
    path = tmp_path / "bad.fc"
    path.write_text(
        "surface genus=0 orientable=true boundary=0\n"
        "sing c point kind=center\n"
    )
    proc = _run(["validate", str(path)])
    assert proc.returncode == 1
    assert "poincare-hopf" in proc.stdout


def test_cli_parse_error_exit_2(tmp_path):
    path = tmp_path / "syntax.fc"
    path.write_text("surface genus=0 orientable=true boundary=0\nsing ??? point kind=center\n")
    proc = _run(["classify", str(path)])
    assert proc.returncode == 2
    assert "bad identifier" in proc.stderr


def test_cli_verify_violation_exit_3(tmp_path):
    # validates structurally, but recurrence has no non-wandering route:
    # an isolated saddle figure-eight with no families declared around it
    path = tmp_path / "violation.fc"
    path.write_text(
        "surface genus=0 orientable=true boundary=0\n"
        "sing sd point kind=saddle\n"
        "sing c1 point kind=center\n"
        "sing c2 point kind=center\n"
        "sing c3 point kind=center\n"
        "orbit lo proper alpha=sing:sd omega=sing:sd\n"
        "orbit li proper alpha=sing:sd omega=sing:sd\n"
    )
    proc = _run(["verify", str(path)])
    assert proc.returncode == 3
    assert "VIOLATION" in proc.stdout


def test_cli_classify_json_and_determinism(tmp_path):
    path = tmp_path / "dc.fc"
    path.write_text(emit(build("double_center_sphere", {"n": 2})))
    outputs = {tuple(_run(["classify", str(path), "--json"]).stdout.splitlines()) for _ in range(3)}
    assert len(outputs) == 1
    proc = _run(["classify", str(path)])
    assert proc.returncode == 0
    assert "extended_r_closed: true" in proc.stdout


def test_cli_orbit_and_generalized(tmp_path):
    path = tmp_path / "hd.fc"
    path.write_text(emit(build("halfdisk_sphere", None)))
    plain = _run(["orbit", str(path), "--start", "rp", "--direction", "fwd"])
    assert plain.returncode == 0
    assert "rp  (seed)" in plain.stdout
    gen = _run(["orbit", str(path), "--start", "rp", "--direction", "fwd", "--generalized"])
    assert gen.returncode == 0
    assert "lp" in gen.stdout and "self_readded: true" in gen.stdout


def test_cli_gallery_round_trip(tmp_path):
    out = tmp_path / "mer.fc"
    proc = _run(["gallery", "--name", "sphere_meridian", "--out", str(out)])
    assert proc.returncode == 0
    assert parse(out.read_text()) == build("sphere_meridian", None)
    proc = _run(["gallery", "--name", "comb_torus", "--param", "n=4", "--out", str(out)])
    assert proc.returncode == 0
    assert parse(out.read_text()) == build("comb_torus", {"n": 4})


def test_cli_gallery_rejects_bad_params(tmp_path):
    out = tmp_path / "x.fc"
    proc = _run(["gallery", "--name", "comb_torus", "--param", "n=1", "--out", str(out)])
    assert proc.returncode == 1


def test_cli_export_dot_overlay(tmp_path):
    path = tmp_path / "g2.fc"
    path.write_text(emit(build("genus2_mixed", None)))
    proc = _run(["export-dot", str(path), "--overlay", "c1"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")
    assert "penwidth=3" in proc.stdout


def test_cli_classify_inconsistent_saddleset_exits_1(tmp_path):
    path = tmp_path / "badset.fc"
    text = emit(build("comb_torus", None)).replace(
        "saddleset ss0 members=q0 isolated=false",
        "saddleset ss0 members=q0 isolated=true",
    )
    path.write_text(text)
    proc = _run(["classify", str(path)])
    assert proc.returncode == 1
    assert "isolated" in proc.stderr


def test_cli_orbit_unknown_start_exits_1(tmp_path):
    path = tmp_path / "ok.fc"
    path.write_text(emit(build("plus_saddle", None)))
    proc = _run(["orbit", str(path), "--start", "ghost"])
    assert proc.returncode == 1
    assert "ghost" in proc.stderr


def test_cli_unknown_flag_is_an_error(tmp_path):
    path = tmp_path / "ok.fc"
    path.write_text(emit(build("plus_saddle", None)))
    proc = _run(["classify", str(path), "--frobnicate"])
    assert proc.returncode != 0
    assert "frobnicate" in proc.stderr


def test_cli_verify_theorem_filter(tmp_path):
    path = tmp_path / "dc.fc"
    path.write_text(emit(build("double_center_sphere", {"n": 1})))
    proc = _run(["verify", str(path), "--theorems", "rclosed-implies-partition,regularity-equivalence"])
    assert proc.returncode == 0
    assert len([l for l in proc.stdout.splitlines() if l]) == 2
    proc = _run(["verify", str(path), "--theorems", "bogus"])
    assert proc.returncode == 1
