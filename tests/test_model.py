import dataclasses
import re
from pathlib import Path

import pytest

import flowcomplex.model
from flowcomplex import (
    AccumulationSchema,
    Classifier,
    Expansion,
    Family,
    FamilyKind,
    FlowComplex,
    LimitRef,
    OrbitClass,
    OrbitKind,
    PointKind,
    PreconditionError,
    RefKind,
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SizeParams,
    SurfaceInfo,
    UnknownIdError,
    classification_report,
    closure_of,
    emit,
    extended_orbit,
    parse,
    random_complex,
    unstable_set,
    validate,
    verify_theorems,
)


def _sphere(**kwargs):
    return FlowComplex.build(SurfaceInfo(0, True, 0), **kwargs)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SurfaceInfo(-1, True, 0), "genus must be non-negative"),
        (lambda: SurfaceInfo(0, True, -1), "boundary_components must be non-negative"),
        (
            lambda: _sphere(singular_sets=[SingularSet("x", Shape.ARC)], orbit_classes=[OrbitClass("x", OrbitKind.PERIODIC)]),
            "duplicate id 'x'",
        ),
        # each would build, then emit text that parse rejects, or fail with a bare TypeError
        (lambda: SurfaceInfo(0, "yes", 0), "orientable must be a bool, not 'yes'"),
        (lambda: SurfaceInfo(0, True, 1.5), "boundary_components must be an int, not 1.5"),
        (lambda: SurfaceInfo("0", True, 0), "genus must be an int, not '0'"),
        (lambda: SurfaceInfo(True, True, 0), "genus must be an int, not True"),
        # each would build and fail later with an AttributeError, or fail with a bare TypeError
        (lambda: FlowComplex.build(None), "surface must be a SurfaceInfo, not None"),
        (lambda: _sphere(singular_sets=["ab"]), "singular_sets must hold SingularSet records with string ids, not 'ab'"),
        (lambda: _sphere(families=[OrbitClass("p", OrbitKind.PERIODIC)]), "families must hold Family records"),
        (lambda: _sphere(orbit_classes=None), "orbit_classes must be a collection of OrbitClass records, not None"),
        (lambda: _sphere(orbit_classes="p"), "orbit_classes must be a collection of OrbitClass records, not 'p'"),
        (
            lambda: _sphere(singular_sets=[SingularSet("a", Shape.ARC), SingularSet(7, Shape.ARC)]),
            "singular_sets must hold SingularSet records with string ids, not SingularSet[(]id=7",
        ),
        # each would fail with an AttributeError or a bare TypeError, or build and fail later
        (lambda: parse(None), "^parse takes a str, not NoneType$"),
        (lambda: parse(b"surface genus=0 orientable=true boundary=0\n"), "^parse takes a str, not bytes$"),
        (lambda: validate(None), "^validate takes a FlowComplex, not NoneType$"),
        (lambda: emit("surface genus=0 orientable=true boundary=0\n"), "^emit takes a FlowComplex, not str$"),
        (lambda: Expansion.plain(None), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Expansion.generalized(None), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Expansion.admit(None, [{"s"}]), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Expansion(None, []), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Classifier(None), "^Classifier takes a FlowComplex, not NoneType$"),
        (lambda: classification_report(None), "^Classifier takes a FlowComplex, not NoneType$"),
        (lambda: verify_theorems(None), "^Classifier takes a FlowComplex, not NoneType$"),
    ],
    ids=[
        "negative-genus",
        "negative-boundary",
        "duplicate-id",
        "str-orientable",
        "float-boundary",
        "str-genus",
        "bool-genus",
        "none-surface",
        "str-record",
        "record-of-another-type",
        "none-records",
        "str-records",
        "int-id",
        "parse-none",
        "parse-bytes",
        "validate-none",
        "emit-str",
        "expansion-plain-none",
        "expansion-generalized-none",
        "expansion-admit-none",
        "expansion-none",
        "classifier-none",
        "report-none",
        "verify-none",
    ],
)
def test_constructors_reject_bad_input_with_a_precondition_error(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


def test_build_takes_records_from_any_iterable():
    records = [SingularSet("b", Shape.POINT, PointKind.CENTER), SingularSet("a", Shape.POINT, PointKind.CENTER)]
    built = _sphere(singular_sets=(rec for rec in records))
    assert built == _sphere(singular_sets=records)
    assert [s.id for s in built.singular_sets] == ["a", "b"]


# one record of each type that ``build`` accepts, under its keyword there
VALID_RECORDS = {
    "singular_sets": SingularSet("r", Shape.POINT, PointKind.CENTER),
    "orbit_classes": OrbitClass("r", OrbitKind.PERIODIC),
    "families": Family("r", FamilyKind.PERIODIC_ANNULUS, frozenset({"r"}), frozenset({"r"})),
    "accumulation_schemas": AccumulationSchema("r", SchemaKind.SADDLE_CHAIN, ("r",), frozenset({"r"})),
    "saddle_set_decls": SaddleSetDecl("r", frozenset({"r"}), False),
}


@pytest.mark.parametrize(
    "keyword, field",
    [
        ("singular_sets", "shape"),
        ("orbit_classes", "kind"),
        ("families", "kind"),
        ("families", "boundary0"),
        ("families", "boundary1"),
        ("accumulation_schemas", "kind"),
        ("accumulation_schemas", "samples"),
        ("accumulation_schemas", "target"),
        ("saddle_set_decls", "members"),
        ("saddle_set_decls", "isolated"),
    ],
)
def test_build_rejects_a_required_field_left_none(keyword, field):
    _sphere(**{keyword: [VALID_RECORDS[keyword]]})
    record = dataclasses.replace(VALID_RECORDS[keyword], **{field: None})
    with pytest.raises(PreconditionError, match=f"^'r' has no {field}$"):
        _sphere(**{keyword: [record]})


def test_gallery_fixtures_validate(gallery_complexes):
    for name, fc in gallery_complexes.items():
        report = validate(fc)
        assert report.ok, (name, report.violations)


def test_saddle_with_three_filled_slots_is_flagged():
    fc = _sphere(
        singular_sets=[
            SingularSet("s", Shape.POINT, PointKind.SADDLE),
            SingularSet("so", Shape.POINT, PointKind.SOURCE),
            SingularSet("si", Shape.POINT, PointKind.SINK),
        ],
        orbit_classes=[
            OrbitClass("a", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.sing("s")),
            OrbitClass("b", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.sing("s")),
            OrbitClass("e", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.sing("s")),
            OrbitClass("c", OrbitKind.PROPER, LimitRef.sing("s"), LimitRef.sing("si")),
            OrbitClass("d", OrbitKind.PROPER, LimitRef.sing("s"), LimitRef.sing("si")),
        ],
    )
    report = validate(fc)
    assert "saddle-slot-count" in report.rules()


def test_poincare_hopf_rejects_single_center_sphere():
    fc = _sphere(singular_sets=[SingularSet("c", Shape.POINT, PointKind.CENTER)])
    report = validate(fc)
    assert "poincare-hopf" in report.rules()


def test_poincare_hopf_skipped_for_degenerate_points():
    fc = _sphere(singular_sets=[SingularSet("q", Shape.POINT, PointKind.OTHER)])
    assert "poincare-hopf" not in validate(fc).rules()


def test_unresolved_reference_is_reported():
    fc = _sphere(
        orbit_classes=[OrbitClass("m", OrbitKind.PROPER, LimitRef.sing("ghost"), LimitRef.sing("ghost"))],
    )
    report = validate(fc)
    assert "unresolved-id" in report.rules()


def test_every_violation_is_listed_not_just_the_first():
    fc = _sphere(
        singular_sets=[SingularSet("s", Shape.POINT, PointKind.SADDLE)],
        orbit_classes=[
            OrbitClass("p", OrbitKind.PERIODIC, alpha=LimitRef.sing("s")),
            OrbitClass("d", OrbitKind.LOCALLY_DENSE),
        ],
    )
    rules = validate(fc).rules()
    assert {"periodic-has-limit", "dense-missing-closure", "saddle-slot-count"} <= rules


def test_dense_closure_must_be_closed():
    fc = FlowComplex.build(
        SurfaceInfo(1, True, 0),
        singular_sets=[SingularSet("s", Shape.POINT, PointKind.OTHER)],
        orbit_classes=[
            OrbitClass("u", OrbitKind.LOCALLY_DENSE, alpha=LimitRef.sing("s"), closure_decl=frozenset({"u"})),
        ],
    )
    assert "closure-decl-not-closed" in validate(fc).rules()


def test_shrinking_boundary_must_be_single_point():
    fc = _sphere(
        singular_sets=[SingularSet("c1", Shape.POINT, PointKind.CENTER), SingularSet("c2", Shape.POINT, PointKind.CENTER)],
        orbit_classes=[OrbitClass("g", OrbitKind.PERIODIC)],
        families=[Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"g"}), frozenset({"c1"}), shrinks0=True, shrinks1=True)],
    )
    assert "shrink-boundary-not-point" in validate(fc).rules()


def test_point_boundary_requires_shrink_flag():
    fc = _sphere(
        singular_sets=[SingularSet("c1", Shape.POINT, PointKind.CENTER), SingularSet("c2", Shape.POINT, PointKind.CENTER)],
        families=[Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"c1"}), frozenset({"c2"}), shrinks1=True)],
    )
    assert "point-boundary-needs-shrink" in validate(fc).rules()


def test_arc_with_point_kind_is_flagged():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 0),
        singular_sets=[SingularSet("seg", Shape.ARC, PointKind.CENTER)],
    )
    assert "continuum-kind" in validate(fc).rules()


def test_locally_dense_closure_mismatch():
    decl_a = frozenset({"a", "b"})
    decl_b = frozenset({"b"})
    fc = FlowComplex.build(
        SurfaceInfo(1, True, 0),
        orbit_classes=[
            OrbitClass("a", OrbitKind.LOCALLY_DENSE, closure_decl=decl_a),
            OrbitClass("b", OrbitKind.LOCALLY_DENSE, closure_decl=decl_b),
        ],
    )
    assert "locally-dense-closure-mismatch" in validate(fc).rules()


THIRD_SEPARATRIX_AS_SET = """\
surface genus=0 orientable=true boundary=0
sing s point kind=saddle
sing a point kind=source
sing b point kind=sink
sing c point kind=center
orbit i1 proper alpha=sing:a omega=sing:s
orbit i2 proper alpha=sing:a omega=sing:s
orbit o1 proper alpha=sing:s omega=sing:b
orbit o2 proper alpha=sing:s omega=sing:b
orbit x proper alpha=sing:a omega=set:s
"""


def test_one_id_set_reference_to_a_singularity_is_rejected():
    # ``set:s`` would be a third stable separatrix of ``s`` that the slot
    # count does not see; plain and generalized extension read it alike
    fc = parse(THIRD_SEPARATRIX_AS_SET)
    report = validate(fc)
    assert [(v.id, v.rule) for v in report.violations] == [("x", "limit-ref-kind")]
    for direction in ("fwd", "bwd", "both"):
        plain = extended_orbit(fc, "x", direction)
        gen = Expansion.admit(fc, [{"s"}]).orbit("x", direction)
        assert (plain.members, plain.added_round, plain.depth) == (gen.members, gen.added_round, gen.depth)


def test_limit_reference_kind_must_match_its_target():
    singular = [
        SingularSet("s", Shape.POINT, PointKind.SADDLE),
        SingularSet("a", Shape.POINT, PointKind.SOURCE),
    ]
    cases = {
        "orbit-named-as-sing": (LimitRef.sing("p"), LimitRef.sing("a")),
        "sing-named-as-orbit": (LimitRef.sing("a"), LimitRef.orbit("s")),
        "singular-one-id-set": (LimitRef.sing("a"), LimitRef.of_set({"a"})),
        "empty-set": (LimitRef.sing("a"), LimitRef.of_set(())),
    }
    for name, (alpha, omega) in cases.items():
        fc = _sphere(
            singular_sets=singular,
            orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC), OrbitClass("m", OrbitKind.PROPER, alpha, omega)],
        )
        assert "limit-ref-kind" in validate(fc).rules(), name
    fine = _sphere(
        singular_sets=singular,
        orbit_classes=[
            OrbitClass("p", OrbitKind.PERIODIC),
            OrbitClass("m", OrbitKind.PROPER, LimitRef.sing("a"), LimitRef.orbit("p")),
            OrbitClass("n", OrbitKind.PROPER, LimitRef.sing("a"), LimitRef.of_set({"p"})),
        ],
    )
    assert "limit-ref-kind" not in validate(fine).rules()


def test_set_reference_must_be_invariant():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 0),
        singular_sets=[
            SingularSet("sd", Shape.POINT, PointKind.SADDLE),
            SingularSet("so", Shape.POINT, PointKind.SOURCE),
        ],
        orbit_classes=[
            OrbitClass("lo", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
            OrbitClass("li", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
            # the loop alone is not invariant: its ends escape to the saddle
            OrbitClass("w", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.of_set({"lo"})),
        ],
    )
    assert "set-ref-not-invariant" in validate(fc).rules()


def test_family_boundary_must_be_invariant():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 0),
        singular_sets=[
            SingularSet("sd", Shape.POINT, PointKind.SADDLE),
            SingularSet("c", Shape.POINT, PointKind.CENTER),
        ],
        orbit_classes=[
            OrbitClass("lo", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
            OrbitClass("li", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
        ],
        families=[Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"lo"}), frozenset({"c"}), shrinks1=True)],
    )
    assert "family-boundary-not-invariant" in validate(fc).rules()


def test_saddleset_declaration_must_be_invariant(gallery_complexes):
    base = gallery_complexes["halfdisk_sphere"]
    from flowcomplex import SaddleSetDecl

    fc = FlowComplex(
        base.surface,
        base.singular_sets,
        base.orbit_classes,
        base.families,
        base.accumulation_schemas,
        (SaddleSetDecl("bad", frozenset({"rp"}), isolated=True),),
    )
    assert "saddleset-not-invariant" in validate(fc).rules()


def test_unresolved_refs_do_not_mask_local_violations():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 0),
        orbit_classes=[
            OrbitClass("m", OrbitKind.PROPER, LimitRef.sing("ghost"), LimitRef.sing("ghost")),
            OrbitClass("p", OrbitKind.PERIODIC, alpha=LimitRef.sing("ghost")),
        ],
    )
    rules = validate(fc).rules()
    assert {"unresolved-id", "periodic-has-limit"} <= rules


C, S, SO, SI = (
    SingularSet(sid, Shape.POINT, kind)
    for sid, kind in (("c", PointKind.CENTER), ("s", PointKind.SADDLE), ("so", PointKind.SOURCE), ("si", PointKind.SINK))
)
G = OrbitClass("g", OrbitKind.PERIODIC)
# a homoclinic loop at s, which is not invariant without s
LOOP = OrbitClass("lo", OrbitKind.PROPER, LimitRef.sing("s"), LimitRef.sing("s"))


def _annulus(shrinks: bool) -> Family:
    return Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"g"}), frozenset({"c"}), shrinks, shrinks)


def _schema(kind: SchemaKind, samples: tuple[str, ...], target: set[str]) -> dict:
    return dict(singular_sets=[C], orbit_classes=[G], accumulation_schemas=[AccumulationSchema("q", kind, samples, frozenset(target))])


# (rule, the records of a sphere that breaks it, that rule's violations as (id, detail))
VALIDATE_RULES = [
    (
        "unresolved-id",
        dict(orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC, alpha=LimitRef.sing("ghost"))]),
        [("p", "reference to unknown id 'ghost'")],
    ),
    (
        "limit-ref-kind",
        dict(singular_sets=[SI], orbit_classes=[OrbitClass("m", OrbitKind.PROPER, LimitRef.orbit("si"), LimitRef.sing("si"))]),
        [("m", "orbit:si names the wrong kind of piece")],
    ),
    ("point-missing-kind", dict(singular_sets=[SingularSet("x", Shape.POINT)]), [("x", "point singularity needs a kind")]),
    (
        "continuum-kind",
        dict(singular_sets=[SingularSet("seg", Shape.ARC, PointKind.CENTER)]),
        [("seg", "arc/circle singular sets carry no point kind")],
    ),
    (
        "periodic-has-limit",
        dict(singular_sets=[C], orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC, omega=LimitRef.sing("c"))]),
        [("p", "periodic orbits are their own limit sets")],
    ),
    (
        "proper-missing-limit",
        dict(singular_sets=[SO], orbit_classes=[OrbitClass("m", OrbitKind.PROPER, LimitRef.sing("so"))]),
        [("m", "proper non-closed orbits carry both limits")],
    ),
    (
        "dense-missing-closure",
        dict(orbit_classes=[OrbitClass("d", OrbitKind.EXCEPTIONAL)]),
        [("d", "dense classes declare their closure")],
    ),
    (
        "closure-missing-self",
        dict(singular_sets=[C], orbit_classes=[OrbitClass("d", OrbitKind.LOCALLY_DENSE, closure_decl=frozenset({"c"}))]),
        [("d", "a closure contains the class itself")],
    ),
    (
        "closure-decl-not-closed",
        dict(singular_sets=[S], orbit_classes=[OrbitClass("u", OrbitKind.LOCALLY_DENSE, LimitRef.sing("s"), None, frozenset({"u"}))]),
        [("u", "declared closure is not closed; closing adds ['s']")],
    ),
    (
        "locally-dense-closure-mismatch",
        dict(
            orbit_classes=[
                OrbitClass("a", OrbitKind.LOCALLY_DENSE, closure_decl=frozenset({"a", "b"})),
                OrbitClass("b", OrbitKind.LOCALLY_DENSE, closure_decl=frozenset({"b"})),
            ]
        ),
        [("a", "b does not share the same dense part of the closure")],
    ),
    (
        "set-ref-not-invariant",
        dict(
            singular_sets=[S, SO],
            orbit_classes=[LOOP, OrbitClass("w", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.of_set({"lo"}))],
        ),
        [("w", "limits of lo escape to ['s']")],
    ),
    (
        "family-boundary-not-invariant",
        dict(
            singular_sets=[S, C],
            orbit_classes=[LOOP],
            families=[Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"lo"}), frozenset({"c"}), shrinks1=True)],
        ),
        [("f", "limits of lo escape to ['s']")],
    ),
    (
        "shrink-boundary-not-point",
        dict(singular_sets=[C], orbit_classes=[G], families=[_annulus(True)]),
        [("f", "a shrinking boundary is a single point singularity")],
    ),
    (
        "point-boundary-needs-shrink",
        dict(singular_sets=[C], orbit_classes=[G], families=[_annulus(False)]),
        [("f", "members converging to a point must shrink")],
    ),
    (
        "schema-empty",
        dict(accumulation_schemas=[AccumulationSchema("q", SchemaKind.SADDLE_CHAIN, (), frozenset())]),
        [("q", "samples and target must be nonempty")],
    ),
    (
        "schema-target-overlap",
        _schema(SchemaKind.SINGULARITY_SEQUENCE, ("c",), {"c"}),
        [("q", "target must be disjoint from samples")],
    ),
    (
        "schema-sample-kind",
        _schema(SchemaKind.SINGULARITY_SEQUENCE, ("g",), {"c"}),
        [("q", "singularity sequence samples must be singular: ['g']")],
    ),
    (
        "schema-sample-kind",
        _schema(SchemaKind.FAMILY_SEQUENCE, ("g",), {"c"}),
        [("q", "family sequence samples must be families: ['g']")],
    ),
    (
        "schema-sample-kind",
        _schema(SchemaKind.SADDLE_CHAIN, ("c",), {"g"}),
        [("q", "saddle chain samples must be saddles or orbits: ['c']")],
    ),
    (
        "schema-target-kind",
        _schema(SchemaKind.SINGULARITY_SEQUENCE, ("c",), {"g"}),
        [("q", "limit of singularities must be singular: ['g']")],
    ),
    (
        "saddleset-not-invariant",
        dict(
            singular_sets=[SO, SI],
            orbit_classes=[OrbitClass("m", OrbitKind.PROPER, LimitRef.sing("so"), LimitRef.sing("si"))],
            saddle_set_decls=[SaddleSetDecl("d", frozenset({"m"}), False)],
        ),
        [("d", "closure of m escapes the declared set")],
    ),
    (
        "saddle-slot-count",
        dict(singular_sets=[S]),
        [("s", "stable slots filled: 0, unstable slots filled: 0 (need 2 + 2)")],
    ),
    ("poincare-hopf", dict(singular_sets=[C]), [("surface", "index sum 1 != Euler characteristic 2")]),
]


@pytest.mark.parametrize("rule, records, expected", VALIDATE_RULES, ids=[f"{r[0]}-{i}" for i, r in enumerate(VALIDATE_RULES)])
def test_every_validate_rule_fires_with_its_detail(rule, records, expected):
    violations = validate(_sphere(**records)).violations
    assert [(v.id, v.detail) for v in violations if v.rule == rule] == expected


def test_the_rule_table_covers_every_violation_validate_can_report():
    source = Path(flowcomplex.model.__file__).read_text(encoding="utf-8")
    rules = set(re.findall(r'Violation\(\s*[^,()]+,\s*"([a-z-]+)"', source))
    assert len(rules) > 20
    assert rules == {rule for rule, _, _ in VALIDATE_RULES}


def test_closure_of_periodic_orbit_is_itself():
    fc = FlowComplex.build(SurfaceInfo(1, True, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)])
    assert closure_of(fc, "p") == frozenset({"p"})


def test_closure_of_junction_arc(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    assert closure_of(fc, "c1") == frozenset({"c1", "s1", "s2"})


def test_closure_of_dense_leaf_is_its_declaration(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    assert closure_of(fc, "u1") == fc.orbit_by_id["u1"].closure_decl


def test_closure_expands_set_references_to_a_fixpoint():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 0),
        singular_sets=[
            SingularSet("sd", Shape.POINT, PointKind.SADDLE),
            SingularSet("si", Shape.POINT, PointKind.SINK),
        ],
        orbit_classes=[
            OrbitClass("lo", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
            OrbitClass("li", OrbitKind.PROPER, LimitRef.sing("sd"), LimitRef.sing("sd")),
            OrbitClass("w", OrbitKind.PROPER, LimitRef.of_set({"lo", "li", "sd"}), LimitRef.sing("si")),
        ],
    )
    assert closure_of(fc, "w") == frozenset({"w", "lo", "li", "sd", "si"})


def test_closure_of_unknown_id():
    fc = FlowComplex.build(SurfaceInfo(1, True, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)])
    with pytest.raises(UnknownIdError):
        closure_of(fc, "nope")


@pytest.mark.parametrize(
    "query",
    [
        lambda fc: closure_of(fc, []),
        lambda fc: extended_orbit(fc, []),
        lambda fc: unstable_set(fc, []),
        lambda fc: Classifier(fc).members([]),
    ],
    ids=["closure_of", "extended_orbit", "unstable_set", "members"],
)
def test_an_unhashable_id_is_a_precondition_error(query):
    # not a bare "TypeError: unhashable type: 'list'"
    fc = FlowComplex.build(SurfaceInfo(1, True, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)])
    with pytest.raises(PreconditionError, match=r"^an id is a string, not \[\]$"):
        query(fc)


def test_closure_idempotent_on_fixtures_and_random(gallery_complexes):
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(100)]
    for fc in complexes:
        for xid in sorted(fc.all_ids):
            cl = closure_of(fc, xid)
            expanded = frozenset().union(*(closure_of(fc, y) for y in cl))
            assert expanded == cl


def test_generator_respects_poincare_hopf_on_closed_regular_surfaces():
    for seed in range(60):
        fc = random_complex(seed, SizeParams(profile="sphere-regular"))
        assert validate(fc).ok
        assert fc.surface.closed and fc.surface.orientable


def test_mutated_singularity_kind_is_rejected():
    fc = random_complex(3, SizeParams(profile="sphere-regular"))
    centers = [s for s in fc.singular_sets if s.kind is PointKind.CENTER]
    assert centers
    mutated_sing = tuple(
        SingularSet(s.id, s.shape, PointKind.SADDLE) if s.id == centers[0].id else s
        for s in fc.singular_sets
    )
    mutated = FlowComplex(fc.surface, mutated_sing, fc.orbit_classes, fc.families, fc.accumulation_schemas, fc.saddle_set_decls)
    report = validate(mutated)
    assert not report.ok
    assert "poincare-hopf" in report.rules()


# -- record semantics -----------------------------------------------------------

# (class, positional arguments with every field given, the defaulted fields
# left out, what they default to)
RECORDS = [
    (SingularSet, ("s", Shape.POINT, PointKind.SADDLE), 2, {"kind": None}),
    (
        OrbitClass,
        ("o", OrbitKind.LOCALLY_DENSE, LimitRef.sing("s"), LimitRef.of_set(["o", "s"]), frozenset({"o", "s"})),
        2,
        {"alpha": None, "omega": None, "closure_decl": None},
    ),
    (Family, ("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"a"}), frozenset({"b"}), True, True), 4, {"shrinks0": False, "shrinks1": False}),
    (AccumulationSchema, ("c", SchemaKind.SADDLE_CHAIN, ("p", "q"), frozenset({"t"})), 4, {}),
    (SaddleSetDecl, ("d", frozenset({"s"}), True), 3, {}),
    (LimitRef, (RefKind.SET, ("a", "b")), 2, {}),
]


@pytest.mark.parametrize("cls, args, required, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_dataclasses(cls, args, required, defaults):
    names = [f.name for f in dataclasses.fields(cls)]
    assert len(names) == len(args)
    record = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert repr(record) == repr(by_keyword) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"
    assert [getattr(record, n) for n in names] == list(args)
    # equality is per class and per field
    assert record != cls(*args[:-1], None) and record != (*args,)

    short = cls(*args[:required])
    assert {n: getattr(short, n) for n in names[required:]} == defaults
    assert short == cls(**dict(zip(names[:required], args[:required])))
    with pytest.raises(TypeError):
        cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, None)

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1

    changed = dataclasses.replace(record, **{names[0]: "z"})
    assert type(changed) is cls and changed != record
    assert getattr(changed, names[0]) == "z" and [getattr(changed, n) for n in names[1:]] == list(args[1:])
    assert dataclasses.replace(record) == record
    assert [(f.name, f.default) for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING] == list(
        defaults.items()
    )
    assert dataclasses.astuple(record) == tuple(dataclasses.astuple(a) if dataclasses.is_dataclass(a) else a for a in args)
