import copy
import dataclasses
import enum
import functools
import importlib
import inspect
import pickle
import pkgutil
import re
import typing
from operator import attrgetter
from pathlib import Path

import pytest

import flowcomplex
import flowcomplex.model
from flowcomplex import (
    AccumulationSchema,
    Classifier,
    Expansion,
    Family,
    FamilyKind,
    FlowComplex,
    FlowComplexError,
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
    build,
    classification_report,
    closure_of,
    emit,
    export_dot,
    extended_orbit,
    generalized_saddle_sets,
    has_finitely_many_singularities,
    is_isolated,
    is_non_identical,
    is_saddle_set,
    orbit_set_closure,
    parse,
    random_complex,
    stable_set,
    unstable_set,
    validate,
    verify_theorems,
)
from flowcomplex.classify import ClassificationReport, CycleSide, LimitCycle, Verdict, Witness
from flowcomplex.gallery import GalleryEntry, plus_saddle, sphere_limit_cycle
from flowcomplex.model import ValidationReport, Violation
from flowcomplex.orbits import Direction, ExtendedOrbitSet, SaddleSetVerdict, member_closure
from flowcomplex.textio import ParseError, ParseErrors
from flowcomplex.theorems import TheoremResult, TheoremStatus


def _sphere(surface=SurfaceInfo(0, True, 0), **kwargs):
    return FlowComplex.build(surface, **kwargs)


# a complex that passes validate, with the saddle 's', for the analyses'
# checks of their own arguments
_PLUS = build("plus_saddle")


# an arc and a periodic orbit that share the id 'a'
ARC_A, PERIODIC_A = SingularSet("a", Shape.ARC), OrbitClass("a", OrbitKind.PERIODIC)


def _made_directly(keyword, **changes):
    """A complex built without ``build``, holding one record of ``VALID_RECORDS``
    with ``changes`` applied."""
    return FlowComplex(SurfaceInfo(0, True, 0), **{keyword: (dataclasses.replace(VALID_RECORDS[keyword], **changes),)})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SurfaceInfo(-1, True, 0), "genus must be non-negative"),
        (lambda: SurfaceInfo(0, True, -1), "boundary_components must be non-negative"),
        # a non-orientable surface has a crosscap, whatever its boundary
        (lambda: SurfaceInfo(0, False, 1), "^a non-orientable surface has genus at least 1$"),
        (
            lambda: _sphere(singular_sets=[SingularSet("x", Shape.ARC)], orbit_classes=[OrbitClass("x", OrbitKind.PERIODIC)]),
            "duplicate id 'x'",
        ),
        # each would build, then emit text that parse rejects, or fail with a bare TypeError
        (lambda: SurfaceInfo(0, "yes", 0), "^SurfaceInfo orientable must be a bool, not 'yes'$"),
        (lambda: SurfaceInfo(0, True, 1.5), "^SurfaceInfo boundary_components must be an int, not 1.5$"),
        (lambda: SurfaceInfo("0", True, 0), "^SurfaceInfo genus must be an int, not '0'$"),
        (lambda: SurfaceInfo(True, True, 0), "^SurfaceInfo genus must be an int, not True$"),
        (lambda: LimitRef(5, ("x",)), "^LimitRef kind must be a RefKind, not 5$"),
        (
            lambda: SingularSet("r", Shape.POINT, OrbitKind.PERIODIC),
            re.escape(f"SingularSet 'r' kind must be a PointKind or None, not {OrbitKind.PERIODIC!r}"),
        ),
        # each would build and fail later with an AttributeError, or fail with a bare TypeError
        (lambda: FlowComplex.build(None), "^FlowComplex has no surface$"),
        (lambda: _sphere(singular_sets=["ab"]), "^singular_sets must hold SingularSet records, not 'ab'$"),
        (lambda: _sphere(families=[OrbitClass("p", OrbitKind.PERIODIC)]), "families must hold Family records"),
        (lambda: _sphere(orbit_classes=None), "orbit_classes must be a collection of OrbitClass records, not None"),
        (lambda: _sphere(orbit_classes="p"), "orbit_classes must be a collection of OrbitClass records, not 'p'"),
        (lambda: _sphere(singular_sets=[SingularSet("a", Shape.ARC), SingularSet(7, Shape.ARC)]), "^SingularSet id must be a str, not 7$"),
        # each would build, and fail later with a bare exception or give
        # witnesses that depend on the record order
        (lambda: FlowComplex(_SURFACE, ("x",)), "^singular_sets must hold SingularSet records, not 'x'$"),
        (lambda: dataclasses.replace(_sphere(), singular_sets=("x",)), "^singular_sets must hold SingularSet records, not 'x'$"),
        (lambda: FlowComplex(_SURFACE, (ARC_A,), (PERIODIC_A,)), "^duplicate id 'a'$"),
        (lambda: dataclasses.replace(_sphere(singular_sets=[ARC_A]), orbit_classes=(PERIODIC_A,)), "^duplicate id 'a'$"),
        (lambda: LimitRef(RefKind.SING, ("b", "a")), r"^LimitRef sing: names one id, not \('b', 'a'\)$"),
        (lambda: dataclasses.replace(LimitRef.sing("a"), ids=("b", "a")), r"^LimitRef sing: names one id, not \('b', 'a'\)$"),
        (lambda: LimitRef(RefKind.ORBIT, ()), r"^LimitRef orbit: names one id, not \(\)$"),
        (lambda: dataclasses.replace(LimitRef.orbit("a"), ids=()), r"^LimitRef orbit: names one id, not \(\)$"),
        (lambda: LimitRef(RefKind.SET, ()), r"^LimitRef set: names at least one id, not \(\)$"),
        (lambda: dataclasses.replace(LimitRef.of_set("a"), ids=()), r"^LimitRef set: names at least one id, not \(\)$"),
        (lambda: LimitRef(RefKind.SET, ("a", 5)), "^LimitRef ids must be strs, not 5$"),
        (lambda: dataclasses.replace(LimitRef.of_set("a"), ids=("a", 5)), "^LimitRef ids must be strs, not 5$"),
        (lambda: LimitRef(RefKind.SING, (5,)), "^LimitRef ids must be strs, not 5$"),
        # each would build, for validate to flag
        (lambda: AccumulationSchema("q", SchemaKind.SADDLE_CHAIN, (), frozenset({"t"})), "^AccumulationSchema 'q' samples and target must be nonempty$"),
        (lambda: AccumulationSchema("q", SchemaKind.SADDLE_CHAIN, ("p",), frozenset()), "^AccumulationSchema 'q' samples and target must be nonempty$"),
        (lambda: dataclasses.replace(VALID_RECORDS["accumulation_schemas"], samples=()), "^AccumulationSchema 'r' samples and target must be nonempty$"),
        (lambda: dataclasses.replace(VALID_RECORDS["accumulation_schemas"], target=frozenset()), "^AccumulationSchema 'r' samples and target must be nonempty$"),
        # each would fail with an AttributeError or a bare TypeError, or build and fail later
        (lambda: parse(None), "^parse takes a str, not NoneType$"),
        (lambda: parse(b"surface genus=0 orientable=true boundary=0\n"), "^parse takes a str, not bytes$"),
        (lambda: validate(None), "^validate takes a FlowComplex, not NoneType$"),
        (lambda: emit("surface genus=0 orientable=true boundary=0\n"), "^emit takes a FlowComplex, not str$"),
        (lambda: Expansion.plain(None), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Expansion.generalized(None), "^Expansion takes a FlowComplex, not NoneType$"),
        (lambda: Expansion(None, []), "^Expansion takes a FlowComplex, not NoneType$"),
        # each would fail with a bare TypeError, or expand over the characters of an id
        (lambda: Expansion(_PLUS, None), "^Expansion takes a list or tuple of frozensets, not NoneType$"),
        (lambda: Expansion(_PLUS, ["p1"]), "^an expansion set is a frozenset, not 'p1'$"),
        (lambda: Expansion(_PLUS, [["p1"]]), r"^an expansion set is a frozenset, not \['p1'\]$"),
        (lambda: Classifier(None), "^Classifier takes a FlowComplex, not NoneType$"),
        (lambda: classification_report(None), "^Classifier takes a FlowComplex, not NoneType$"),
        (lambda: verify_theorems(None), "^Classifier takes a FlowComplex, not NoneType$"),
        (lambda: export_dot(None), "^export_dot takes a FlowComplex, not NoneType$"),
        (lambda: export_dot(_sphere(), "eq"), "^export_dot's overlay is an ExtendedOrbitSet, not str$"),
        # each would fail with an AttributeError or a bare TypeError
        (lambda: closure_of(None, "c"), "^closure_of takes a FlowComplex, not NoneType$"),
        (lambda: unstable_set(None, "c"), "^unstable_set takes a FlowComplex, not NoneType$"),
        (lambda: stable_set(None, "c"), "^stable_set takes a FlowComplex, not NoneType$"),
        (lambda: member_closure(None, "c"), "^member_closure takes a FlowComplex, not NoneType$"),
        (lambda: orbit_set_closure(None, ["c"]), "^orbit_set_closure takes a FlowComplex, not NoneType$"),
        (lambda: generalized_saddle_sets(None), "^generalized_saddle_sets takes a FlowComplex, not NoneType$"),
        (lambda: is_saddle_set(None, ["c"]), "^is_saddle_set takes a FlowComplex, not NoneType$"),
        (lambda: is_isolated(None, ["c"]), "^is_isolated takes a FlowComplex, not NoneType$"),
        (lambda: has_finitely_many_singularities(None), "^has_finitely_many_singularities takes a FlowComplex, not NoneType$"),
        (lambda: is_non_identical(None), "^is_non_identical takes a FlowComplex, not NoneType$"),
        (lambda: orbit_set_closure(_sphere(), None), "^orbit_set_closure takes a collection of ids, not None$"),
        (lambda: is_saddle_set(_sphere(), None), "^is_saddle_set takes a collection of ids, not None$"),
        (lambda: is_isolated(_sphere(), None), "^is_isolated takes a collection of ids, not None$"),
        # each would read the string as a set of one-character ids
        (lambda: orbit_set_closure(_sphere(), "c1"), "^orbit_set_closure takes a collection of ids, not the string 'c1'$"),
        (lambda: is_saddle_set(_sphere(), "c1"), "^is_saddle_set takes a collection of ids, not the string 'c1'$"),
        (lambda: is_isolated(_sphere(), "c1"), "^is_isolated takes a collection of ids, not the string 'c1'$"),
        (lambda: ParseErrors("c"), "^ParseErrors takes a list of ParseError, not str$"),
        # each would fail with a bare TypeError
        (lambda: ParseErrors(None), "^ParseErrors takes a list of ParseError, not NoneType$"),
        (lambda: ParseErrors(5), "^ParseErrors takes a list of ParseError, not int$"),
        # would build, holding something that is not a ParseError
        (lambda: ParseErrors([5, "x"]), "^ParseErrors takes a list of ParseError, not one holding 5$"),
    ],
    ids=[
        "negative-genus",
        "negative-boundary",
        "non-orientable-genus-zero",
        "duplicate-id",
        "str-orientable",
        "float-boundary",
        "str-genus",
        "bool-genus",
        "int-ref-kind",
        "foreign-point-kind",
        "none-surface",
        "str-record",
        "record-of-another-type",
        "none-records",
        "str-records",
        "int-id",
        "str-in-group",
        "str-in-group-replace",
        "shared-id",
        "shared-id-replace",
        "two-id-sing-ref",
        "two-id-sing-ref-replace",
        "empty-orbit-ref",
        "empty-orbit-ref-replace",
        "empty-set-ref",
        "empty-set-ref-replace",
        "int-set-ref-id",
        "int-set-ref-id-replace",
        "int-sing-ref-id",
        "schema-empty-samples",
        "schema-empty-target",
        "schema-empty-samples-replace",
        "schema-empty-target-replace",
        "parse-none",
        "parse-bytes",
        "validate-none",
        "emit-str",
        "expansion-plain-none",
        "expansion-generalized-none",
        "expansion-none",
        "expansion-none-sets",
        "expansion-str-set",
        "expansion-list-set",
        "classifier-none",
        "report-none",
        "verify-none",
        "export-dot-none",
        "export-dot-str-overlay",
        "closure-of-none",
        "unstable-set-none",
        "stable-set-none",
        "member-closure-none",
        "orbit-set-closure-none",
        "generalized-saddle-sets-none",
        "is-saddle-set-none",
        "is-isolated-none",
        "finitely-many-singularities-none",
        "non-identical-none",
        "orbit-set-closure-none-members",
        "is-saddle-set-none-members",
        "is-isolated-none-members",
        "orbit-set-closure-str-members",
        "is-saddle-set-str-members",
        "is-isolated-str-members",
        "parse-errors-str",
        "parse-errors-none",
        "parse-errors-int",
        "parse-errors-holding-int",
    ],
)
def test_constructors_reject_bad_input_with_a_precondition_error(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


def test_expansion_sets_hold_known_ids():
    with pytest.raises(UnknownIdError, match="nope"):
        Expansion(_PLUS, [frozenset({"s"}), frozenset({"s", "nope"})])
    assert Expansion(_PLUS, (frozenset({"s"}),)).payloads(True) == Expansion.plain(_PLUS).payloads(True)


def test_a_set_reference_keeps_its_ids_sorted_and_distinct():
    assert LimitRef(RefKind.SET, ("b", "a", "a")).ids == ("a", "b")
    assert dataclasses.replace(LimitRef.of_set("a"), ids=("b", "a", "a")).ids == ("a", "b")


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


def test_poincare_hopf_holds_on_a_klein_bottle_with_no_singularity():
    fc = FlowComplex.build(SurfaceInfo(2, False, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)])
    assert validate(fc).ok


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
    # when it is made, so no complex holds one
    arc = SingularSet("seg", Shape.ARC)
    for make in (lambda: SingularSet("seg", Shape.ARC, PointKind.CENTER), lambda: dataclasses.replace(arc, kind=PointKind.CENTER)):
        with pytest.raises(PreconditionError, match="^arc/circle singular set 'seg' carries no point kind$"):
            make()


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
    # count does not see; the engines refuse the complex (they once read it
    # alike, plain and generalized)
    fc = parse(THIRD_SEPARATRIX_AS_SET)
    report = validate(fc)
    assert [(v.id, v.rule) for v in report.violations] == [("x", "limit-ref-kind")]
    line = re.escape("\nx: limit-ref-kind (set:s names the wrong kind of piece)") + "$"
    for engine in (lambda: extended_orbit(fc, "x"), lambda: Expansion(fc, [frozenset({"s"})]), lambda: Expansion.generalized(fc), lambda: Classifier(fc)):
        with pytest.raises(PreconditionError, match=line):
            engine()


def test_limit_reference_kind_must_match_its_target():
    singular = [
        SingularSet("s", Shape.POINT, PointKind.SADDLE),
        SingularSet("a", Shape.POINT, PointKind.SOURCE),
    ]
    cases = {
        "orbit-named-as-sing": (LimitRef.sing("p"), LimitRef.sing("a")),
        "sing-named-as-orbit": (LimitRef.sing("a"), LimitRef.orbit("s")),
        "singular-one-id-set": (LimitRef.sing("a"), LimitRef.of_set({"a"})),
    }  # an empty set: is rejected when it is made (the empty-set-ref rows)
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
    (
        "saddleset-not-saddle-set",
        dict(singular_sets=[C], saddle_set_decls=[SaddleSetDecl("d", frozenset({"c"}), True)]),
        [("d", "nothing outside the set accumulates on it and leaves it")],
    ),
    (
        # a single saddle needs no witness; nothing accumulates on it
        "saddleset-isolated-flag",
        dict(singular_sets=[S], saddle_set_decls=[SaddleSetDecl("d", frozenset({"s"}), False)]),
        [("d", "declared isolated=false, but no minimal sets accumulate on it")],
    ),
    # the index sum needs no orientation: a projective plane and a Klein bottle
    ("poincare-hopf", dict(surface=SurfaceInfo(1, False, 0)), [("surface", "index sum 0 != Euler characteristic 1")]),
    ("poincare-hopf", dict(surface=SurfaceInfo(2, False, 0), singular_sets=[C]), [("surface", "index sum 1 != Euler characteristic 0")]),
]


@pytest.mark.parametrize("rule, records, expected", VALIDATE_RULES, ids=[f"{r[0]}-{i}" for i, r in enumerate(VALIDATE_RULES)])
def test_every_validate_rule_fires_with_its_detail(rule, records, expected):
    violations = validate(_sphere(**records)).violations
    assert [(v.id, v.detail) for v in violations if v.rule == rule] == expected


def test_the_rule_table_covers_every_violation_validate_can_report():
    source = Path(flowcomplex.model.__file__).read_text(encoding="utf-8")
    rules = set(re.findall(r'Violation\(\s*[^,()]+,\s*"([a-z-]+)"', source))
    assert len(rules) >= 18
    assert rules == {rule for rule, _, _ in VALIDATE_RULES}


# every entry point that analyses a complex, and the caller its message names
GATED_CALLS = {
    "Classifier": (Classifier, "Classifier"),
    "classification_report": (classification_report, "Classifier"),
    "verify_theorems": (verify_theorems, "Classifier"),
    "Expansion": (lambda fc: Expansion(fc, []), "Expansion"),
    "Expansion.plain": (Expansion.plain, "Expansion"),
    "Expansion.generalized": (Expansion.generalized, "Expansion"),
    "extended_orbit": (lambda fc: extended_orbit(fc, "x"), "Expansion"),
    "generalized_saddle_sets": (generalized_saddle_sets, "generalized_saddle_sets"),
}


@pytest.mark.parametrize("label", GATED_CALLS)
def test_every_analysis_refuses_a_complex_that_fails_validate(label):
    """On each complex of ``VALIDATE_RULES`` the analysis raises before it
    reads its other arguments, naming itself and then, one a line, each
    violation as ``flowcomplex validate`` prints it."""
    call, caller = GATED_CALLS[label]
    for rule, records, _ in VALIDATE_RULES:
        fc = _sphere(**records)
        lines = [f"{v.id}: {v.rule} ({v.detail})" for v in validate(fc).violations]
        with pytest.raises(PreconditionError) as info:
            call(fc)
        assert str(info.value).split("\n") == [f"{caller} takes a complex that passes validate, which reports:", *lines], rule


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
        lambda fc: fc.closure([]),
        lambda fc: fc.is_saddle([]),
        lambda fc: Classifier(fc).block([]),
        lambda fc: Classifier(fc).extension_closed([]),
        lambda fc: Classifier(fc).extended_periodic([]),
    ],
    ids=[
        "closure_of",
        "extended_orbit",
        "unstable_set",
        "members",
        "closure",
        "is_saddle",
        "block",
        "extension_closed",
        "extended_periodic",
    ],
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
# left out, what they default to, another value of the last field)
RECORDS = [
    (SingularSet, ("s", Shape.POINT, PointKind.SADDLE), 2, {"kind": None}, PointKind.CENTER),
    (
        OrbitClass,
        ("o", OrbitKind.LOCALLY_DENSE, LimitRef.sing("s"), LimitRef.of_set(["o", "s"]), frozenset({"o", "s"})),
        2,
        {"alpha": None, "omega": None, "closure_decl": None},
        frozenset({"o"}),
    ),
    (
        Family,
        ("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"a"}), frozenset({"b"}), True, True),
        4,
        {"shrinks0": False, "shrinks1": False},
        False,
    ),
    (AccumulationSchema, ("c", SchemaKind.SADDLE_CHAIN, ("p", "q"), frozenset({"t"})), 4, {}, frozenset({"u"})),
    (SaddleSetDecl, ("d", frozenset({"s"}), True), 3, {}, False),
    (LimitRef, (RefKind.SET, ("a",)), 2, {}, ("a", "b")),
]


@pytest.mark.parametrize("cls, args, required, defaults, other_last", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_dataclasses(cls, args, required, defaults, other_last):
    names = [f.name for f in dataclasses.fields(cls)]
    assert len(names) == len(args)
    record = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert repr(record) == repr(by_keyword) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"
    assert [getattr(record, n) for n in names] == list(args)
    # equality is per class and per field
    assert record != cls(*args[:-1], other_last) and record != (*args,)

    # a point singularity needs a kind, so SingularSet's default is tried on an arc
    head = ("s", Shape.ARC) if cls is SingularSet else args[:required]
    short = cls(*head)
    assert {n: getattr(short, n) for n in names[required:]} == defaults
    assert short == cls(**dict(zip(names[:required], head)))
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

    first = RefKind.ORBIT if cls is LimitRef else "z"  # of the first field's type: an id, or LimitRef's kind
    changed = dataclasses.replace(record, **{names[0]: first})
    assert type(changed) is cls and changed != record
    assert getattr(changed, names[0]) == first and [getattr(changed, n) for n in names[1:]] == list(args[1:])
    assert dataclasses.replace(record) == record
    assert [(f.name, f.default) for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING] == list(
        defaults.items()
    )
    assert dataclasses.astuple(record) == tuple(dataclasses.astuple(a) if dataclasses.is_dataclass(a) else a for a in args)


@pytest.mark.parametrize("cls, args", [r[:2] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_records_have_slots_and_survive_pickle_and_copy(cls, args):
    record = cls(*args)
    assert "__slots__" in vars(cls) and not hasattr(record, "__dict__")
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.copy(record), copy.deepcopy(record)]:
        assert type(other) is cls and other == record and hash(other) == hash(record)


def test_a_built_complex_survives_pickle(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    assert validate(fc).ok  # fills the cached indexes and closures, which pickle too
    back = pickle.loads(pickle.dumps(fc))
    assert back == fc and emit(back) == emit(fc) and validate(back) == validate(fc)


# -- the value-class contract -----------------------------------------------------

_WITNESS = Witness(("a", "b"), "rule")
_SURFACE = SurfaceInfo(0, True, 0)
_SADDLE = SingularSet("s", Shape.POINT, PointKind.SADDLE)

# every value class of the package, with the arguments of two unequal
# instances; each is checked against a stdlib ``dataclass(frozen=True)`` twin
VALUE_CLASSES = [
    (SurfaceInfo, (0, True, 0), (1, False, 2)),
    (LimitRef, (RefKind.SET, ("a", "b")), (RefKind.SING, ("s",))),
    (SingularSet, ("s", Shape.POINT, PointKind.SADDLE), ("a", Shape.POINT, PointKind.CENTER)),
    (OrbitClass, ("o", OrbitKind.LOCALLY_DENSE, LimitRef.sing("s"), None, frozenset({"o", "s"})), ("p", OrbitKind.PERIODIC, None, None, None)),
    (
        Family,
        ("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"a"}), frozenset({"b"}), True, False),
        ("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"a"}), frozenset({"b"}), False, False),
    ),
    (AccumulationSchema, ("c", SchemaKind.SADDLE_CHAIN, ("p", "q"), frozenset({"t"})), ("c", SchemaKind.FAMILY_SEQUENCE, ("p",), frozenset({"t"}))),
    (SaddleSetDecl, ("d", frozenset({"s"}), True), ("d", frozenset({"s"}), False)),
    (Violation, ("x", "rule", "detail"), ("x", "rule", "")),
    (ValidationReport, ((Violation("x", "rule"),),), ((),)),
    (FlowComplex, (_SURFACE, (_SADDLE,), (), (), (), ()), (_SURFACE, (), (), (), (), ())),
    (Witness, (("a", "b"), "rule"), (("a",), "rule")),
    (Verdict, (False, _WITNESS), (True, None)),
    (ClassificationReport, (Verdict(True),) * 6 + (Verdict(False, _WITNESS),), (Verdict(True),) * 7),
    (LimitCycle, (frozenset({"a", "s"}), "w", CycleSide.ALPHA), (frozenset({"a", "s"}), "w", CycleSide.OMEGA)),
    (
        ExtendedOrbitSet,
        ("a", Direction.FORWARD, frozenset({"a", "s"}), {"a": 0, "s": 1}, 1, False),
        ("a", Direction.BOTH, frozenset({"a"}), {"a": 0}, 0, False),
    ),
    (SaddleSetVerdict, (True, "w"), (False, None)),
    (SizeParams, (2, 4, "any"), (0, 1, "sphere")),
    (ParseError, (1, 2, "message"), (1, 3, "message")),
    (TheoremResult, ("name", TheoremStatus.HOLDS, "detail"), ("name", TheoremStatus.VIOLATION, "detail")),
    (GalleryEntry, ("a", plus_saddle, {"n": 3}, {"regular": True}), ("a", sphere_limit_cycle, {}, {})),
]
# arguments that ``__post_init__`` rejects
REJECTED = {
    SurfaceInfo: ((-1, True, 0), "genus must be non-negative"),
    LimitRef: ((RefKind.SET, ()), "names at least one id"),
    SingularSet: (("s", Shape.POINT), "needs a kind"),
    AccumulationSchema: (("c", SchemaKind.SADDLE_CHAIN, (), frozenset({"t"})), "must be nonempty"),
    FlowComplex: ((_SURFACE, (_SADDLE, _SADDLE)), "duplicate id 's'"),
    SizeParams: ((0, 0, "any"), "max_repeats must be at least 1"),
}


def test_the_contract_lists_every_value_class():
    found = set()
    for info in pkgutil.iter_modules(flowcomplex.__path__, "flowcomplex."):
        module = importlib.import_module(info.name)
        found |= {obj for obj in vars(module).values() if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == info.name}
    assert found == {cls for cls, _, _ in VALUE_CLASSES}


def _stdlib_twin(cls):
    """A ``dataclass(frozen=True)`` with the same name, fields and ``__post_init__``."""
    specs = []
    for f in dataclasses.fields(cls):
        defaults = {"default": f.default, "default_factory": f.default_factory}
        specs.append((f.name, f.type, dataclasses.field(**{k: v for k, v in defaults.items() if v is not dataclasses.MISSING})))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field holds a dict
        return str(exc)


@pytest.mark.parametrize("cls, args, other_args", VALUE_CLASSES, ids=[c[0].__name__ for c in VALUE_CLASSES])
def test_value_classes_behave_as_stdlib_frozen_dataclasses(cls, args, other_args):
    twin = _stdlib_twin(cls)
    assert str(inspect.signature(cls.__init__)) == str(inspect.signature(twin.__init__))
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    describe = attrgetter("name", "type", "default", "default_factory", "init", "repr", "hash", "compare", "kw_only")
    assert [describe(f) for f in dataclasses.fields(cls)] == [describe(f) for f in dataclasses.fields(twin)]
    assert cls.__match_args__ == twin.__match_args__
    # a docstring the class declares, not one generated from its signature
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")

    value, equal, other = cls(*args), cls(*args), cls(*other_args)
    twin_value, twin_other = twin(*args), twin(*other_args)
    assert value == equal and not value != equal
    assert value != other and not value == other
    assert value != twin_value and value != args
    assert _hash_or_error(value) == _hash_or_error(equal) == _hash_or_error(twin_value)
    assert _hash_or_error(other) == _hash_or_error(twin_other)
    assert repr(value) == repr(twin_value) and repr(other) == repr(twin_other)

    names = [f.name for f in dataclasses.fields(cls)]
    changes = {names[0]: getattr(other, names[0]), names[-1]: getattr(other, names[-1])}
    assert dataclasses.replace(value, **changes) == cls(**{**dict(zip(names, args)), **changes})
    assert dataclasses.astuple(value) == dataclasses.astuple(twin_value)
    assert dataclasses.asdict(value) == dataclasses.asdict(twin_value)

    for name in [*names, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == equal

    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(back) is cls and back == value and _hash_or_error(back) == _hash_or_error(value)

    if cls in REJECTED:
        bad, message = REJECTED[cls]
        for made in (cls, twin):
            with pytest.raises(PreconditionError, match=message):
                made(*bad)
    else:
        assert not hasattr(cls, "__post_init__")


# every field without a default, of every value class, with the arguments of
# one instance
REQUIRED_FIELDS = [
    (cls, args, f.name)
    for cls, args, _ in VALUE_CLASSES
    for f in dataclasses.fields(cls)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
]


@pytest.mark.parametrize("cls, args, name", REQUIRED_FIELDS, ids=[f"{cls.__name__}-{name}" for cls, _, name in REQUIRED_FIELDS])
def test_a_required_field_rejects_none(cls, args, name):
    values = dict(zip([f.name for f in dataclasses.fields(cls)], args))
    record = cls(**values)
    who = f"{cls.__name__} {values['id']!r}" if "id" in values and name != "id" else cls.__name__
    message = f"^{re.escape(who)} has no {name}$"
    with pytest.raises(PreconditionError, match=message):
        cls(**{**values, name: None})
    with pytest.raises(PreconditionError, match=message):
        dataclasses.replace(record, **{name: None})


# -- the error contract of every public entry point -------------------------------

BAD_ARGUMENTS = (None, "", "c", [], 5, {})
_G2 = build("genus2_mixed")
# an argument each public function and method takes, by parameter name, on a
# complex with saddles
LEGAL = {
    "fc": _G2,
    "xid": "u1",
    "sid": "s1",
    "start": "u1",
    "members": frozenset({"s1"}),
    "sets": [frozenset({"s1"})],
    "direction": Direction.BOTH,
    "forward": True,
    "generalized": False,
    "name": "genus2_mixed",
    "params": None,
    "text": emit(_G2),
    "seed": 7,
    "size": SizeParams(),
    "names": None,
    "overlay": None,
    "surface": _G2.surface,
    "singular_sets": _G2.singular_sets,
    "orbit_classes": _G2.orbit_classes,
    "families": _G2.families,
    "accumulation_schemas": _G2.accumulation_schemas,
    "saddle_set_decls": _G2.saddle_set_decls,
    "errors": [ParseError(1, 1, "x")],
}


def _legal_arguments(function):
    return tuple(LEGAL[name] for name in inspect.signature(function).parameters)


def _call_method(make, name, *args):
    return getattr(make(), name)(*args)


def _public_calls():
    """``(label, function, legal arguments)`` for every function and class in
    ``flowcomplex.__all__`` and every public method of ``Classifier``,
    ``Expansion`` and ``FlowComplex``.  Enums (a lookup by a value they lack
    raises ``ValueError``, as for any ``Enum``), exception classes that keep
    ``Exception``'s constructor and the two constants are not entry points.
    A value class takes its arguments from ``VALUE_CLASSES``; an instance
    method runs on a new instance each call."""
    value_args = {cls: args for cls, args, _ in VALUE_CLASSES}
    calls = []
    for name in flowcomplex.__all__:
        obj = getattr(flowcomplex, name)
        inherits_init = isinstance(obj, type) and issubclass(obj, Exception) and "__init__" not in vars(obj)
        if not callable(obj) or isinstance(obj, enum.EnumMeta) or inherits_init:
            continue
        calls.append((name, obj, value_args[obj] if obj in value_args else _legal_arguments(obj)))
    for cls, make in ((Classifier, functools.partial(Classifier, _G2)), (Expansion, functools.partial(Expansion.plain, _G2)), (FlowComplex, lambda: _G2)):
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                method = getattr(cls, name)
                calls.append((f"{cls.__name__}.{name}", method, _legal_arguments(method)))
            elif inspect.isfunction(attr):
                legal = _legal_arguments(getattr(make(), name))
                calls.append((f"{cls.__name__}.{name}", functools.partial(_call_method, make, name), legal))
    return calls


def test_every_public_entry_point_raises_a_flowcomplex_error_or_returns():
    calls = _public_calls()
    labels = {label for label, _, _ in calls}
    assert {"Classifier", "Classifier.report", "Expansion.orbit", "ParseErrors", "FlowComplex.build", "FlowComplex.closure", "SurfaceInfo", "verify_theorems"} <= labels
    escapes = []
    for label, function, legal in calls:
        function(*legal)
        for i in range(len(legal)):
            for bad in BAD_ARGUMENTS:
                args = (*legal[:i], bad, *legal[i + 1 :])
                try:
                    function(*args)
                except FlowComplexError:
                    pass
                except Exception as exc:
                    escapes.append(f"{label} argument {i} = {bad!r}: {exc!r}")
    assert escapes == []


# A value of the wrong type for each field, by the field's resolved type:
# each of these that is not an instance of it (``int`` rejects ``bool``).
WRONG_VALUES = (5, True, "r", ("r",), ["r"], frozenset({"r"}), OrbitKind.PERIODIC, PointKind.SADDLE)
# The entry points that read every record of a complex.  Each once took a
# complex made directly with one record holding a list, tuple or string
# where a frozenset is declared, or an int or foreign-enum kind, and raised
# a bare TypeError or KeyError, or wrote text that parse rejects.
WHOLE_COMPLEX_CALLS = ("validate", "emit", "export_dot", "classification_report", "verify_theorems", "generalized_saddle_sets")


def _field_classes(cls, name):
    """The classes ``isinstance`` checks field ``name`` against, with
    ``NoneType`` when it is optional."""
    hint = typing.get_type_hints(cls)[name]
    members = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    return tuple(typing.get_origin(m) or m for m in members)


def _is_wrong(value, classes):
    return not isinstance(value, classes) or (isinstance(value, bool) and int in classes and bool not in classes)


def _wrong_type_message(record, name, value):
    classes = _field_classes(type(record), name)
    names = [("an " if c.__name__[0] in "AEIOUaeiou" else "a ") + c.__name__ for c in classes if c is not type(None)]
    expected = " or ".join(names + ["None"] * (type(None) in classes))
    who = f"{type(record).__name__} {record.id!r}" if hasattr(record, "id") and name != "id" else type(record).__name__
    return f"{who} {name} must be {expected}, not {value!r}"


def _wrong_type_rows():
    """``(record, field, value, keyword)``: every wrong value of every field of
    every value class, with no keyword; then one row per whole-complex entry
    point and frozenset or enum field of each record of ``VALID_RECORDS``,
    under its keyword, for a list, tuple or string frozenset and an int or
    foreign-enum kind; then a ``LimitRef`` with an int kind."""
    rows = []
    for cls, args, _ in VALUE_CLASSES:
        record = cls(*args)
        for f in dataclasses.fields(cls):
            classes = _field_classes(cls, f.name)
            for value in WRONG_VALUES:
                if _is_wrong(value, classes):
                    rows.append(pytest.param(record, f.name, value, None, id=f"{cls.__name__}-{f.name}-{type(value).__name__}"))
    for keyword, record in VALID_RECORDS.items():
        for f in dataclasses.fields(record):
            classes = _field_classes(type(record), f.name)
            if frozenset in classes:
                values = (["r"], ("r",), "r")
            elif issubclass(classes[0], enum.Enum):
                values = (5, next(v for v in (PointKind.SADDLE, OrbitKind.PERIODIC) if _is_wrong(v, classes)))
            else:
                continue
            for value in values:
                for call in WHOLE_COMPLEX_CALLS:
                    rows.append(pytest.param(record, f.name, value, keyword, id=f"{call}-{keyword}-{f.name}-{type(value).__name__}"))
    # a limit reference is read through an orbit class; validate once raised
    # a bare AttributeError on it and emit a bare KeyError
    for call in ("validate", "emit"):
        rows.append(pytest.param(LimitRef.sing("x"), "kind", 5, None, id=f"{call}-orbit_classes-LimitRef-kind-int"))
    return rows


# a field of ids in a record made directly, holding the id 5 that is not a
# str; each once made validate, emit or the analyses raise a bare TypeError
# from sorting or joining the ids
NON_STR_ID_FIELDS = {
    "Family-boundary0": ("families", {"boundary0": frozenset({"r", 5})}),
    "Family-boundary1": ("families", {"boundary1": frozenset({"r", 5})}),
    "OrbitClass-closure_decl": ("orbit_classes", {"kind": OrbitKind.LOCALLY_DENSE, "closure_decl": frozenset({"r", 5})}),
    "sing_seq-target": ("accumulation_schemas", {"kind": SchemaKind.SINGULARITY_SEQUENCE, "target": frozenset({"t", 5})}),
    "family_seq-target": ("accumulation_schemas", {"kind": SchemaKind.FAMILY_SEQUENCE, "target": frozenset({"t", 5})}),
    "AccumulationSchema-samples": ("accumulation_schemas", {"samples": ("r", 5)}),
    "SaddleSetDecl-members": ("saddle_set_decls", {"members": frozenset({"r", 5})}),
}


@pytest.mark.parametrize("field", NON_STR_ID_FIELDS)
@pytest.mark.parametrize("call", [*WHOLE_COMPLEX_CALLS, "extended_orbit"])
def test_an_id_that_is_not_a_str_is_a_flowcomplex_error(call, field):
    """``validate`` reports the id unresolved, and every analysis refuses the
    complex for it; ``emit`` raises a ``PreconditionError``, and so does
    ``export_dot`` on the one field it sorts, a family boundary."""
    keyword, changes = NON_STR_ID_FIELDS[field]
    fc = _made_directly(keyword, **changes)
    unresolved = "r: unresolved-id (reference to unknown id 5)"
    if call == "validate":
        assert unresolved in [f"{v.id}: {v.rule} ({v.detail})" for v in validate(fc).violations]
    elif call == "emit" or (call == "export_dot" and keyword == "families"):
        with pytest.raises(PreconditionError, match=f"^{call} takes a complex whose ids are strs: "):
            getattr(flowcomplex, call)(fc)
    elif call == "export_dot":  # it writes no other field of ids
        assert export_dot(fc).startswith("digraph flow_complex {")
    else:
        analyse = (lambda fc: extended_orbit(fc, "r")) if call == "extended_orbit" else getattr(flowcomplex, call)
        with pytest.raises(PreconditionError, match=f"\n{re.escape(unresolved)}(\n|$)"):
            analyse(fc)


@pytest.mark.parametrize("record, field, value, keyword", _wrong_type_rows())
def test_a_field_rejects_a_value_of_the_wrong_type(record, field, value, keyword):
    """Made directly and by ``dataclasses.replace``, a record with ``value`` in
    ``field`` raises a ``PreconditionError`` naming the class, the id, the
    field, the expected type and the value; so does ``_made_directly``, and a
    whole-complex entry point can never be given such a record."""
    cls = type(record)
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    message = f"^{re.escape(_wrong_type_message(record, field, value))}$"
    with pytest.raises(PreconditionError, match=message):
        cls(**{**values, field: value})
    with pytest.raises(PreconditionError, match=message):
        dataclasses.replace(record, **{field: value})
    if keyword is not None:
        with pytest.raises(PreconditionError, match=message):
            _made_directly(keyword, **{field: value})
