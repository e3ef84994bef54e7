import dataclasses
import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomplex import (
    AccumulationSchema,
    Direction,
    Family,
    FamilyKind,
    FlowComplex,
    LimitRef,
    OrbitClass,
    OrbitKind,
    ParseErrors,
    PointKind,
    PreconditionError,
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
    build,
    classification_report,
    emit,
    export_dot,
    extended_orbit,
    parse,
    random_complex,
    verify_theorems,
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


def _same_in_any_record_order(fc, text):
    """``fc`` made directly with every record group reversed is the same
    complex: equal, written the same, with the same report and theorems."""
    reversed_fc = FlowComplex(fc.surface, *(getattr(fc, f.name)[::-1] for f in dataclasses.fields(fc)[1:]))
    assert reversed_fc == fc and emit(reversed_fc) == text
    assert classification_report(reversed_fc) == classification_report(fc)
    assert verify_theorems(reversed_fc) == verify_theorems(fc)


def test_round_trip_on_gallery(gallery_complexes):
    for name, fc in gallery_complexes.items():
        text = emit(fc)
        again = parse(text)
        assert again == fc, name
        assert emit(again) == text, name
        _same_in_any_record_order(fc, text)


def test_round_trip_on_the_wide_comb():
    fc = build("comb_torus", {"n": 640})
    assert parse(emit(fc)) == fc


def test_round_trip_on_random_complexes():
    for seed in range(250):
        fc = random_complex(seed)
        text = emit(fc)
        assert parse(text) == fc, seed
        _same_in_any_record_order(fc, text)


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


# Every way a record line can be off, each pinned as the (line, column,
# message) of every error in order.  Each document is the surface line,
# then these lines.
LINE_ERRORS = [
    ("orbit o proper alpha=sing:a alpha=sing:b omega=sing:a", [(2, 29, "duplicate field 'alpha'")]),
    ("orbit o proper alpha=sing:a omega=sing:a colour=red", [(2, 42, "unknown field 'colour'")]),
    (
        "orbit o proper alpha=sing:a novalue omega=sing:a =x",
        [(2, 29, "expected key=value, got 'novalue'"), (2, 50, "unknown field ''")],
    ),
    ("family f kind=annulus b0= b1=c", [(2, 23, "empty value for 'b0'")]),
    ("orbit o dense closure=", [(2, 15, "empty value for 'closure'")]),
    ("family f kind=annulus b0=a b1=b shrinks0=maybe", [(2, 42, "shrinks0 must be true or false")]),
    (
        "family f kind=annulus kind=region b0=a b1=b shrinks1=true shrinks1=false",
        [(2, 23, "duplicate field 'kind'"), (2, 59, "duplicate field 'shrinks1'")],
    ),
    (
        "family f kind=disk b0=a",
        [(2, 1, "family record is missing b1"), (2, 15, "unknown family kind 'disk' (one of: annulus, region)")],
    ),
    ("family f kind=annulus b0=a=b b1=c", [(2, 26, "bad identifier 'a=b'")]),
    ("sing x point kind=saddle extra=1", [(2, 26, "unknown field 'extra'")]),
    ("sing x point kind=saddle kind=sink", [(2, 26, "duplicate field 'kind'")]),
    ("sing x point", [(2, 8, "point singularities need kind=")]),
    ("sing x arc kind=center", [(2, 17, "arc/circle singular sets take no kind")]),
    ("sing x blob kind=center", [(2, 8, "unknown shape 'blob' (one of: point, arc, circle)")]),
    ("sing x", [(2, 1, "sing record needs a shape")]),
    ("sing 9z point kind=center", [(2, 6, "bad identifier '9z'")]),
    ("sing 9z point kind=center extra=1", [(2, 6, "bad identifier '9z'"), (2, 27, "unknown field 'extra'")]),
    ("sing point point kind=point", [(2, 23, "unknown point kind 'point' (one of: center, saddle, sink, source, other)")]),
    ("orbit o proper alpha=set:a,9z,,b omega=sing:a", [(2, 28, "bad identifier '9z'"), (2, 31, "bad identifier ''")]),
    ("orbit o proper alpha=set: omega=set:a,a", [(2, 26, "bad identifier ''")]),
    ("orbit o proper alpha=orbit:9z omega=orbit:", [(2, 28, "bad identifier '9z'"), (2, 43, "bad identifier ''")]),
    ("orbit o proper alpha=sing:a:b omega=sing:a", [(2, 27, "bad identifier 'a:b'")]),
    (
        "orbit o proper alpha=pt:a omega=a",
        [(2, 22, "unknown reference kind 'pt'"), (2, 33, "limit reference needs a sing:/orbit:/set: prefix, got 'a'")],
    ),
    ("orbit o wiggly alpha=sing:a", [(2, 9, "unknown orbit kind 'wiggly' (one of: periodic, proper, dense, exceptional)")]),
    ("orbit o", [(2, 1, "orbit record needs a kind")]),
    ("orbit o dense closure=o,x.y,a-b", [(2, 25, "bad identifier 'x.y'"), (2, 29, "bad identifier 'a-b'")]),
    (
        "sing x point kind=wobbly # a trailing comment",
        [(2, 19, "unknown point kind 'wobbly' (one of: center, saddle, sink, source, other)")],
    ),
    ("sing x point kind=center extra=1#cut", [(2, 26, "unknown field 'extra'")]),
    (
        "sing\tx\tpoint\tkind=bogus\textra",
        [(2, 25, "expected key=value, got 'extra'"), (2, 19, "unknown point kind 'bogus' (one of: center, saddle, sink, source, other)")],
    ),
    ("orbit\to\tproper\talpha=sing:a\tomega=sing:9z", [(2, 40, "bad identifier '9z'")]),
    (
        "accum c kind=chain samples=a,,b target=t",
        [(2, 14, "unknown schema kind 'chain' (one of: saddle_chain, sing_seq, family_seq)"), (2, 30, "bad identifier ''")],
    ),
    ("accum c samples=a", [(2, 1, "accum record is missing kind"), (2, 1, "accum record is missing target")]),
    ("saddleset d members=s isolated=maybe", [(2, 32, "isolated must be true or false")]),
    (
        "saddleset d members=s,9z isolated=true isolated=false",
        [(2, 40, "duplicate field 'isolated'"), (2, 23, "bad identifier '9z'")],
    ),
    ("surface genus=0 orientable=true boundary=0", [(2, 1, "duplicate surface record")]),
    ("blob x y", [(2, 1, "unknown record kind 'blob'")]),
    (
        "# a comment\n\nsing x point kind=center\nsing x point kind=center # again",
        [(5, 6, "duplicate id 'x' (first declared on line 4)")],
    ),
    (
        "sing x point kind=center\norbit x\tperiodic\nfamily f kind=annulus b0=x b1=x shrinks0=yes",
        [(3, 7, "duplicate id 'x' (first declared on line 2)"), (4, 42, "shrinks0 must be true or false")],
    ),
    # a line whose id is off: every record kind still checks each of its
    # fields, so the id error comes first and the field errors follow
    ("family 9z kind=annulus b0=x.y b1=b", [(2, 8, "bad identifier '9z'"), (2, 27, "bad identifier 'x.y'")]),
    (
        "family f kind=annulus b0=x.y b1=b\nfamily f kind=annulus b0=x.y b1=b",
        [
            (2, 26, "bad identifier 'x.y'"),
            (3, 8, "duplicate id 'f' (first declared on line 2)"),
            (3, 26, "bad identifier 'x.y'"),
        ],
    ),
    ("accum 9z kind=sing_seq samples=a,,b target=t", [(2, 7, "bad identifier '9z'"), (2, 34, "bad identifier ''")]),
    ("saddleset 9z members=x.y isolated=true", [(2, 11, "bad identifier '9z'"), (2, 22, "bad identifier 'x.y'")]),
    ("orbit 9z proper alpha=pt:a omega=sing:b", [(2, 7, "bad identifier '9z'"), (2, 23, "unknown reference kind 'pt'")]),
    ("orbit o proper alpha= omega=sing:a", [(2, 16, "empty value for 'alpha'")]),
    ("family f kind=annulus b0=a,b b1=c shrinks0=true shrinks0=true", [(2, 49, "duplicate field 'shrinks0'")]),
    ("family f kind=annulus b0=a,b b1= shrinks1=true", [(2, 30, "empty value for 'b1'")]),
    # a reference or id list seen on an earlier line, then on a line that is off
    (
        "orbit o proper alpha=sing:a omega=sing:a\n"
        "orbit p proper alpha=sing:a omega=sing:a extra=1\n"
        "orbit q proper alpha=pt:a omega=pt:a",
        [(3, 42, "unknown field 'extra'"), (4, 22, "unknown reference kind 'pt'"), (4, 33, "unknown reference kind 'pt'")],
    ),
    (
        "family f kind=annulus b0=a,b b1=c\nfamily g kind=annulus b0=a,b b1=c,9z",
        [(3, 35, "bad identifier '9z'")],
    ),
    # an empty value on each record kind that takes a list or a number
    ("accum c kind=sing_seq samples= target=t", [(2, 23, "empty value for 'samples'")]),
    ("saddleset d members= isolated=true", [(2, 13, "empty value for 'members'")]),
    ("surface genus= orientable=true boundary=0", [(2, 1, "duplicate surface record"), (2, 9, "empty value for 'genus'")]),
    # a missing field, then a bad value elsewhere on the same line
    (
        "family f kind=annulus b0=a shrinks0=maybe",
        [(2, 1, "family record is missing b1"), (2, 37, "shrinks0 must be true or false")],
    ),
    (
        "accum c kind=chain samples=a",
        [
            (2, 1, "accum record is missing target"),
            (2, 14, "unknown schema kind 'chain' (one of: saddle_chain, sing_seq, family_seq)"),
        ],
    ),
    ("saddleset d isolated=maybe", [(2, 1, "saddleset record is missing members"), (2, 22, "isolated must be true or false")]),
    # an integer field is ASCII decimal with an optional leading minus
    ("surface genus=1_0 orientable=true boundary=0", [(2, 1, "duplicate surface record"), (2, 15, "genus must be an integer")]),
    ("surface genus=\u0663 orientable=true boundary=0", [(2, 1, "duplicate surface record"), (2, 15, "genus must be an integer")]),
    ("surface genus=0 orientable=true boundary=+1", [(2, 1, "duplicate surface record"), (2, 42, "boundary must be an integer")]),
    (
        "surface genus=-1 orientable=true boundary=-",
        [(2, 1, "duplicate surface record"), (2, 43, "boundary must be an integer"), (2, 15, "genus must be non-negative")],
    ),
    # a repeated id does not stop the checks of the line's fields
    (
        "orbit m2 periodic\norbit m2 dense alpha=sin closure=m2",
        [(3, 7, "duplicate id 'm2' (first declared on line 2)"), (3, 22, "limit reference needs a sing:/orbit:/set: prefix, got 'sin'")],
    ),
]


@pytest.mark.parametrize("lines, errors", LINE_ERRORS)
def test_line_errors_are_pinned(lines, errors):
    with pytest.raises(ParseErrors) as exc:
        parse(f"surface genus=0 orientable=true boundary=0\n{lines}\n")
    assert [(e.line, e.column, e.message) for e in exc.value.errors] == errors


# Well-formed lines, with fields in any order, comments and tabs, and what
# each builds.
LINE_RECORDS = [
    ("sing x point kind=saddle # a trailing comment", SingularSet("x", Shape.POINT, PointKind.SADDLE)),
    ("sing x point kind=saddle#cut", SingularSet("x", Shape.POINT, PointKind.SADDLE)),
    ("sing\tx\tarc", SingularSet("x", Shape.ARC)),
    ("  sing  x   circle  ", SingularSet("x", Shape.CIRCLE)),
    (
        "orbit o proper alpha=orbit:p omega=set:b,a,b",
        OrbitClass("o", OrbitKind.PROPER, LimitRef.orbit("p"), LimitRef.of_set(["a", "b"])),
    ),
    (
        "orbit\to\tdense\tomega=sing:s closure=s,o alpha=orbit:o",
        OrbitClass("o", OrbitKind.LOCALLY_DENSE, LimitRef.orbit("o"), LimitRef.sing("s"), frozenset({"o", "s"})),
    ),
    ("orbit o periodic", OrbitClass("o", OrbitKind.PERIODIC)),
    (
        "family f b1=b,a kind=region shrinks1=false b0=c shrinks0=true",
        Family("f", FamilyKind.CLOSED_EXTENDED_REGION, frozenset({"c"}), frozenset({"a", "b"}), True, False),
    ),
    (
        "accum c target=t kind=family_seq samples=b,a,b",
        AccumulationSchema("c", SchemaKind.FAMILY_SEQUENCE, ("b", "a", "b"), frozenset({"t"})),
    ),
    (
        "family f kind=annulus b0=a,b b1=c shrinks1=true shrinks0=false",
        Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"a", "b"}), frozenset({"c"}), False, True),
    ),
    ("saddleset d isolated=false members=s,s", SaddleSetDecl("d", frozenset({"s"}), False)),
]


@pytest.mark.parametrize("line, record", LINE_RECORDS)
def test_well_formed_lines_build_their_record(line, record):
    fc = parse(f"surface genus=0 orientable=true boundary=0\n{line}\n")
    built = (*fc.singular_sets, *fc.orbit_classes, *fc.families, *fc.accumulation_schemas, *fc.saddle_set_decls)
    assert built == (record,)


def test_surface_must_come_first():
    with pytest.raises(ParseErrors) as exc:
        parse("sing c point kind=center\nsurface genus=0 orientable=true boundary=0\n")
    assert any("first record" in e.message for e in exc.value.errors)


# documents without a usable surface record: only a document with no error
# at all is missing one
DOCUMENT_ERRORS = [
    ("", [(1, 1, "missing surface record")]),
    ("# a comment\n\n", [(1, 1, "missing surface record")]),
    ("surface genus=x orientable=true boundary=0\n", [(1, 15, "genus must be an integer")]),
    ("surface genus=0 orientable=true boundary=0 x=1\n", [(1, 44, "unknown field 'x'")]),
    ("surface genus= orientable=true boundary=0\n", [(1, 9, "empty value for 'genus'")]),
    # a non-orientable surface has a crosscap: the error sits on the genus value
    ("surface genus=0 orientable=false boundary=1\n", [(1, 15, "a non-orientable surface has genus at least 1")]),
    ("surface orientable=false boundary=0 genus=0\n", [(1, 43, "a non-orientable surface has genus at least 1")]),
    (
        "sing c point kind=center\nsurface genus=0 orientable=true boundary=0\n",
        [(1, 1, "the first record must be a surface line")],
    ),
    # a missing field, then bad values elsewhere on the same line
    (
        "surface genus=0 orientable=maybe\n",
        [(1, 1, "surface record is missing boundary"), (1, 28, "orientable must be true or false")],
    ),
    (
        "surface genus=x orientable=maybe\n",
        [
            (1, 1, "surface record is missing boundary"),
            (1, 15, "genus must be an integer"),
            (1, 28, "orientable must be true or false"),
        ],
    ),
]


@pytest.mark.parametrize("text, errors", DOCUMENT_ERRORS)
def test_document_errors_are_pinned(text, errors):
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert [(e.line, e.column, e.message) for e in exc.value.errors] == errors


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


# SHA-256 over the DOT text of every gallery entry and of random_complex
# seeds 0..199, each without an overlay and then with the two-sided extended
# orbit of each of its ids, in sorted order.  A change that means to alter
# DOT output re-pins it and says why in CHANGES.md.
DOT_DIGEST = "454a8faccdd0a21a41fc134ae5f73248cfc67782eea7be3bf384c8739c38499e"


def test_export_dot_output_is_pinned(gallery_complexes):
    h = hashlib.sha256()
    for fc in [*gallery_complexes.values(), *(random_complex(seed) for seed in range(200))]:
        overlays = [None, *(extended_orbit(fc, xid, Direction.BOTH) for xid in sorted(fc.all_ids))]
        for overlay in overlays:
            h.update(export_dot(fc, overlay).encode("utf-8"))
            h.update(b"\0")
    assert h.hexdigest() == DOT_DIGEST


def test_a_point_with_no_kind_is_a_precondition_error():
    # when it is made, so neither writer can be handed one
    point = SingularSet("x", Shape.POINT, PointKind.CENTER)
    for make in (lambda: SingularSet("x", Shape.POINT, None), lambda: dataclasses.replace(point, kind=None)):
        with pytest.raises(PreconditionError, match="^point singularity 'x' needs a kind$"):
            make()


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
