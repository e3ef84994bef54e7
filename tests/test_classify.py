import io
import sys
import dataclasses
import threading
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from flowcomplex import (
    GALLERY,
    AccumulationSchema,
    Classifier,
    CycleSide,
    DichotomyCase,
    Direction,
    Family,
    FamilyKind,
    FlowComplex,
    LimitCycle,
    LimitRef,
    OrbitClass,
    OrbitKind,
    PointKind,
    PreconditionError,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
    TheoremStatus,
    UnknownIdError,
    Verdict,
    Witness,
    build,
    classification_report,
    cli,
    emit,
    extended_orbit,
    parse,
    random_complex,
    validate,
    verify_theorems,
)
from flowcomplex import classify, orbits
from flowcomplex.classify import has_periodic_member_kinds
from flowcomplex.model import cached_attribute
from flowcomplex.orbits import Expansion, orbit_set_closure
from flowcomplex.theorems import (
    THEOREM_CHECKS,
    TheoremResult,
    _block_with_infinite_singularities,
    _open_extension_missing_dense_side,
    check_extended_periodic_members,
)
from naive_oracle import (
    naive_blocks,
    naive_dichotomy,
    naive_extended_orbit,
    naive_extended_pap,
    naive_extended_recurrent,
    naive_open_extension_missing_dense_side,
    naive_open_ids,
    naive_periodic_leads,
    naive_recurrent,
    naive_recurrent_flow,
)


def classifier_orbit(cls, xid, direction, generalized=False):
    """``(members, self_readded)`` of an extended orbit, from the two queries
    of ``Classifier``: a one-sided payload plus its seed, the plain two-sided
    ``members``, or the seed and both generalized payloads."""
    if direction is not Direction.BOTH:
        payload = cls.payload(xid, direction is Direction.FORWARD, generalized)
        return payload | {xid}, xid in payload
    fwd, bwd = cls.payload(xid, True, generalized), cls.payload(xid, False, generalized)
    members = fwd | bwd | {xid} if generalized else cls.members(xid)
    return members, xid in fwd or xid in bwd


def _two_center_sphere():
    return FlowComplex.build(
        SurfaceInfo(0, True, 0),
        singular_sets=[
            SingularSet("c1", Shape.POINT, PointKind.CENTER),
            SingularSet("c2", Shape.POINT, PointKind.CENTER),
        ],
        families=[
            Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"c1"}), frozenset({"c2"}), True, True)
        ],
    )


def test_pointwise_recurrence_rules(gallery_complexes):
    assert Classifier(gallery_complexes["sphere_limit_cycle"]).positively_recurrent("g")
    assert not Classifier(gallery_complexes["sphere_meridian"]).positively_recurrent("m")
    genus2 = Classifier(gallery_complexes["genus2_mixed"])
    assert genus2.positively_recurrent("g11")
    # a semi-proper dense leaf is recurrent only on its unpinned side
    assert genus2.positively_recurrent("u1")
    assert not genus2.negatively_recurrent("u1")
    assert genus2.negatively_recurrent("w1")
    assert not genus2.positively_recurrent("w1")


def test_extended_pointwise_recurrence(gallery_complexes):
    meridian = Classifier(gallery_complexes["sphere_meridian"])
    assert not meridian.extended_recurrent_point("m", forward=True)
    genus2 = Classifier(gallery_complexes["genus2_mixed"])
    assert genus2.extended_recurrent_point("a2", forward=True)
    assert genus2.extended_recurrent_point("a2", forward=False)
    assert genus2.extended_recurrent_point("u1", forward=False)
    assert genus2.extended_recurrent_point("s1", forward=True)


def test_extended_recurrent_verdicts(gallery_complexes):
    assert Classifier(gallery_complexes["genus2_mixed"]).extended_recurrent().verdict
    assert Classifier(gallery_complexes["genus2_double_irrational"]).extended_recurrent().verdict
    verdict = Classifier(gallery_complexes["sphere_meridian"]).extended_recurrent()
    assert not verdict.verdict
    assert verdict.witness is not None and verdict.witness.ids == ("m",)


def test_nonwandering_verdicts(gallery_complexes):
    assert Classifier(gallery_complexes["sphere_meridian"]).nonwandering().verdict
    cycle = Classifier(gallery_complexes["sphere_limit_cycle"]).nonwandering()
    assert not cycle.verdict and cycle.witness.ids[0] in ("u", "w")
    assert not Classifier(gallery_complexes["halfdisk_sphere"]).nonwandering().verdict


def test_family_sequence_route_makes_pinched_circle_nonwandering():
    from flowcomplex import AccumulationSchema, LimitRef, SchemaKind

    def build_torus(with_schema: bool) -> FlowComplex:
        schemas = []
        if with_schema:
            schemas.append(
                AccumulationSchema(
                    "row", SchemaKind.FAMILY_SEQUENCE, samples=("f1", "f2"), target=frozenset({"q0", "z0"})
                )
            )
        return FlowComplex.build(
            SurfaceInfo(1, True, 0),
            singular_sets=[SingularSet("q0", Shape.POINT, PointKind.OTHER)],
            orbit_classes=[
                OrbitClass("z0", OrbitKind.PROPER, LimitRef.sing("q0"), LimitRef.sing("q0")),
                OrbitClass("g1", OrbitKind.PERIODIC),
                OrbitClass("g2", OrbitKind.PERIODIC),
            ],
            families=[
                Family("f1", FamilyKind.PERIODIC_ANNULUS, frozenset({"g1"}), frozenset({"g2"})),
                Family("f2", FamilyKind.PERIODIC_ANNULUS, frozenset({"g2"}), frozenset({"g1"})),
            ],
            accumulation_schemas=schemas,
        )

    from flowcomplex import validate

    with_route = build_torus(True)
    without_route = build_torus(False)
    assert validate(with_route).ok and validate(without_route).ok
    assert Classifier(with_route).nonwandering().verdict
    assert not Classifier(without_route).nonwandering().verdict


def test_extended_pap_verdicts(gallery_complexes):
    double_irr = Classifier(gallery_complexes["genus2_double_irrational"]).extended_pap()
    assert not double_irr.verdict
    assert double_irr.witness is not None and double_irr.witness.rule == "block-overlap"
    assert Classifier(_two_center_sphere()).extended_pap().verdict
    assert Classifier(gallery_complexes["double_center_sphere"]).extended_pap().verdict


def test_extended_r_closed_verdicts(gallery_complexes):
    assert Classifier(gallery_complexes["double_center_sphere"]).extended_r_closed().verdict
    assert not Classifier(gallery_complexes["genus2_double_irrational"]).extended_r_closed().verdict
    assert Classifier(_two_center_sphere()).extended_r_closed().verdict


def test_upper_semicontinuity_needs_each_limit_absorbed():
    """A decomposition into disjoint blocks is still not R-closed when the
    block of a boundary or limit point misses what converges onto it."""
    # a non-shrinking annulus boundary of two points that no closure joins:
    # each point is its own block, which cannot absorb the other
    boundary = parse(
        "surface genus=0 orientable=true boundary=0\n"
        "sing c point kind=center\nsing p point kind=other\nsing q point kind=other\n"
        "family f kind=annulus b0=p,q b1=c shrinks1=true\n"
    )
    # a sequence of linked saddle pairs onto the center z: both samples lie in
    # one extended orbit, whose block every instance carries along, but the
    # block of z is z alone
    limit = parse(
        "surface genus=0 orientable=true boundary=0\n"
        "sing s1 point kind=saddle\nsing s2 point kind=saddle\nsing z point kind=center\n"
        "orbit a proper alpha=sing:s1 omega=sing:s2\norbit b proper alpha=sing:s2 omega=sing:s1\n"
        "orbit h1 proper alpha=sing:s1 omega=sing:s1\norbit h2 proper alpha=sing:s2 omega=sing:s2\n"
        "accum seq kind=sing_seq samples=s1,s2 target=z\n"
    )
    for fc, witness in ((boundary, Witness(("f", "p"), "family-boundary-not-absorbed")), (limit, Witness(("seq", "z"), "schema-limit-not-absorbed"))):
        assert validate(fc).ok
        cls = Classifier(fc)
        assert cls.extended_pap().verdict
        assert cls.extended_r_closed() == Verdict(False, witness)


def test_regularity(gallery_complexes):
    assert Classifier(gallery_complexes["genus2_mixed"]).regular().verdict
    assert not Classifier(gallery_complexes["sphere_meridian"]).regular().verdict
    assert not Classifier(gallery_complexes["nested_saddles_disk"]).regular().verdict
    assert not Classifier(gallery_complexes["halfdisk_sphere"]).regular().verdict
    # every singularity is a regular point, but infinitely many accumulate
    fc = parse(
        "surface genus=0 orientable=true boundary=0\n"
        "sing c1 point kind=center\nsing c2 point kind=center\nsing z point kind=center\n"
        "accum seq kind=sing_seq samples=c1,c2 target=z\n"
    )
    assert validate(fc).ok
    assert Classifier(fc).regular() == Verdict(False, Witness(("seq",), "singularity-accumulation"))


def test_extended_center(gallery_complexes):
    dc = Classifier(gallery_complexes["double_center_sphere"])
    assert dc.extended_center("nec1")   # a plain center
    assert dc.extended_center("pn")     # shrinking boundary of compact extended orbits
    assert dc.extended_center("ps")
    assert not Classifier(gallery_complexes["plus_saddle"]).extended_center("s")
    with pytest.raises(PreconditionError):
        Classifier(gallery_complexes["halfdisk_sphere"]).extended_center("seg")


def test_generalized_recurrence(gallery_complexes):
    assert Classifier(gallery_complexes["halfdisk_sphere"]).generalized_recurrent().verdict
    comb = Classifier(gallery_complexes["comb_torus"]).generalized_recurrent()
    assert not comb.verdict and comb.witness.ids == ("z0",)
    # extended recurrence implies generalized recurrence
    for name in ("genus2_mixed", "genus2_double_irrational", "nested_saddles_disk", "double_center_sphere"):
        assert Classifier(gallery_complexes[name]).generalized_recurrent().verdict, name


def test_dichotomy_cases(gallery_complexes):
    assert Classifier(gallery_complexes["genus2_mixed"]).dichotomy("c1") is DichotomyCase.MEETS_LOCALLY_DENSE
    nested = Classifier(gallery_complexes["nested_saddles_disk"])
    assert nested.dichotomy("a1") is DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE


def test_dichotomy_preconditions(gallery_complexes):
    with pytest.raises(PreconditionError):
        Classifier(gallery_complexes["sphere_meridian"]).dichotomy("m")  # not extended recurrent
    with pytest.raises(PreconditionError):
        Classifier(gallery_complexes["double_center_sphere"]).dichotomy("nlo1")  # closed extension


def test_dichotomy_never_violates_on_random_sweep():
    for seed in range(300):
        fc = random_complex(seed)
        cls = Classifier(fc)
        if not cls.extended_recurrent().verdict:
            continue
        for xid in sorted(fc.all_ids):
            if is_extended_closed(fc, xid):
                continue
            assert cls.dichotomy(xid) is not DichotomyCase.VIOLATION


def test_dichotomy_set_tests_match_the_scans(gallery_complexes):
    flows = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    compared = set()
    for fc in flows:
        cls = Classifier(fc)
        if not cls.extended_recurrent().verdict:
            continue
        for xid in sorted(fc.all_ids):
            if not cls.extension_closed(xid):
                case = cls.dichotomy(xid)
                assert case is naive_dichotomy(fc, xid), xid
                compared.add(case)
    assert compared == {DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE, DichotomyCase.MEETS_LOCALLY_DENSE}


# genus2_mixed with a saddle chain through s1 and c1 that accumulates on the
# degenerate point o: the closure of every open extended orbit holds o, and
# its members meet the closure of the locally dense class g11
CHAIN_INTO_DENSE_REGION = """\
surface genus=2 orientable=true boundary=0
sing o point kind=other
sing s1 point kind=saddle
sing s2 point kind=saddle
orbit a2 proper alpha=sing:s2 omega=sing:s1
orbit c1 proper alpha=sing:s1 omega=sing:s2
orbit c2 proper alpha=sing:s1 omega=sing:s2
orbit g11 dense closure=c1,c2,g11,s1,s2,u1,w1
orbit u1 dense alpha=sing:s2 closure=c1,c2,g11,s1,s2,u1,w1
orbit w1 dense omega=sing:s1 closure=c1,c2,g11,s1,s2,u1,w1
family f2 kind=annulus b0=a2,c1,s1,s2 b1=a2,c2,s1,s2
accum chain kind=saddle_chain samples=s1,c1 target=o
"""


def test_dichotomy_tests_both_firing_give_the_singularity_case():
    fc = parse(CHAIN_INTO_DENSE_REGION)
    assert validate(fc).ok
    cls = Classifier(fc)
    assert cls.extended_recurrent().verdict
    members = cls.members("c1")
    assert not cls.extension_closed("c1")
    assert "o" in cls.block("c1") and not members.isdisjoint(cls._dense_closures)
    assert cls.dichotomy("c1") is naive_dichotomy(fc, "c1") is DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE


def test_a_lone_lead_whose_closure_holds_a_chain_takes_the_chain_target():
    # g11 is alone in its extended orbit, and its declared closure holds the
    # chain's samples s1 and c1, so its block continues down the chain to o
    fc = parse(CHAIN_INTO_DENSE_REGION)
    cls = Classifier(fc)
    assert "g11" in cls.leads and cls.members("g11") == {"g11"} and "o" not in fc.closure("g11")
    assert cls.block("g11") == naive_blocks(Classifier(fc))["g11"] == fc.closure("g11") | {"o"}
    set_scans_match_the_per_id_scans(fc)


def test_report_witnesses_accompany_false_verdicts(gallery_complexes):
    for fc in gallery_complexes.values():
        report = classification_report(fc)
        for name in report.FIELDS:
            verdict = getattr(report, name)
            if not verdict.verdict:
                assert verdict.witness is not None, name
                assert verdict.witness.ids


def test_theorem_harness_on_genus2(gallery_complexes):
    results = verify_theorems(gallery_complexes["genus2_mixed"])
    by_name = {r.theorem: r for r in results}
    assert by_name["extended-recurrence-implies-nonwandering"].status is TheoremStatus.HOLDS
    assert by_name["regularity-equivalence"].status is TheoremStatus.HOLDS
    assert by_name["regular-orbit-closure-dichotomy"].status is TheoremStatus.HOLDS
    assert all(r.status is not TheoremStatus.VIOLATION for r in results)


def test_theorem_harness_limit_cycle(gallery_complexes):
    results = verify_theorems(gallery_complexes["sphere_limit_cycle"])
    by_name = {r.theorem: r for r in results}
    assert by_name["limit-cycles-force-wandering"].status is TheoremStatus.HOLDS
    assert by_name["genus-zero-equivalence"].status is TheoremStatus.HOLDS


def test_theorem_names_must_be_a_collection(gallery_complexes):
    # a bare string would otherwise be read as a set of one-letter names
    fc = gallery_complexes["genus2_mixed"]
    with pytest.raises(PreconditionError, match="not the string 'regularity-equivalence'"):
        verify_theorems(fc, "regularity-equivalence")
    [result] = verify_theorems(fc, ["regularity-equivalence"])
    assert result.theorem == "regularity-equivalence"


@pytest.mark.parametrize(
    "names, message",
    [([["x"]], r"theorem names must be strings, not \['x'\]"), (5, "theorem names must be a collection of names, not 5")],
)
def test_theorem_names_that_are_not_strings_are_an_error(gallery_complexes, names, message):
    # each would otherwise fail with a bare TypeError
    with pytest.raises(PreconditionError, match=message):
        verify_theorems(gallery_complexes["genus2_mixed"], names)


def test_sides_must_be_bools(gallery_complexes):
    # the direction name "bwd" is truthy: it would answer for the forward side
    fc = gallery_complexes["genus2_mixed"]
    cls = Classifier(fc)
    for side in ("bwd", 1, None):
        with pytest.raises(PreconditionError, match="forward must be a bool"):
            cls.payload("c1", side)
        with pytest.raises(PreconditionError, match="forward must be a bool"):
            cls.extended_recurrent_point("c1", side)
        with pytest.raises(PreconditionError, match="forward must be a bool"):
            cls._plain.payloads(side)
    assert set(cls._plain._payloads) <= {True, False}


def test_theorem_harness_on_double_center(gallery_complexes):
    results = {r.theorem: r for r in verify_theorems(gallery_complexes["double_center_sphere"])}
    for name in (
        "rclosed-implies-partition",
        "rclosed-singularity-structure",
        "partition-implies-extended-recurrence",
        "closed-extended-orbit-equivalence",
    ):
        assert results[name].status is TheoremStatus.HOLDS, name


def test_five_way_equivalence_positive_case():
    from flowcomplex import SizeParams

    seen_true = False
    for seed in range(40):
        fc = random_complex(seed, SizeParams(profile="sphere-regular"))
        results = {r.theorem: r for r in verify_theorems(fc, ["genus-zero-equivalence"])}
        res = results["genus-zero-equivalence"]
        assert res.status is TheoremStatus.HOLDS
        if Classifier(fc).extended_r_closed().verdict:
            seen_true = True
    assert seen_true


def test_unknown_theorem_name_is_an_error(gallery_complexes):
    with pytest.raises(ValueError):
        verify_theorems(gallery_complexes["plus_saddle"], ["no-such-check"])


def test_strictness_witnesses(gallery_complexes):
    meridian = classification_report(gallery_complexes["sphere_meridian"])
    assert meridian.non_wandering.verdict and not meridian.extended_recurrent.verdict
    double_irr = classification_report(gallery_complexes["genus2_double_irrational"])
    assert double_irr.extended_recurrent.verdict and not double_irr.extended_pap.verdict
    halfdisk = classification_report(gallery_complexes["halfdisk_sphere"])
    assert halfdisk.generalized_recurrent.verdict and not halfdisk.non_wandering.verdict
    comb = classification_report(gallery_complexes["comb_torus"])
    assert comb.non_wandering.verdict and not comb.generalized_recurrent.verdict


def test_extended_pap_matches_the_pairwise_oracle():
    complexes = [build(entry.name) for entry in GALLERY] + [random_complex(seed) for seed in range(1000)]
    verdicts = set()
    for fc in complexes:
        verdict = Classifier(fc).extended_pap()
        ok, pair = naive_extended_pap(fc)
        assert verdict.verdict == ok
        assert (verdict.witness.ids if verdict.witness else None) == pair
        verdicts.add(ok)
    assert verdicts == {True, False}


def is_extended_closed(fc, xid):
    members = extended_orbit(fc, xid, Direction.BOTH).members
    return orbit_set_closure(fc, members) <= members


def test_extended_recurrent_is_decided_once_per_classifier(gallery_complexes, monkeypatch):
    calls = []
    probe = Classifier.extended_recurrent_point

    def counted(self, *args, **kwargs):
        calls.append(args)
        return probe(self, *args, **kwargs)

    monkeypatch.setattr(Classifier, "extended_recurrent_point", counted)
    for name in ("nested_saddles_disk", "genus2_mixed"):
        fc = gallery_complexes[name]
        Classifier(fc).extended_recurrent()
        once = len(calls)
        calls.clear()
        cls = Classifier(fc)
        open_ids = [xid for xid in sorted(fc.all_ids) if not is_extended_closed(fc, xid)]
        assert open_ids, name
        for xid in open_ids:
            cls.dichotomy(xid)
        assert len(calls) == once, name
        calls.clear()


def test_each_kept_fact_is_computed_once_per_classifier(gallery_complexes, monkeypatch):
    # verdicts keep no answers of their own: each is built from facts kept
    # through cached_attribute, so two reports and two runs of all twelve
    # checks on one Classifier compute every fact at most once
    calls = Counter()
    for name, fact in vars(Classifier).items():
        if isinstance(fact, cached_attribute):
            monkeypatch.setattr(fact, "func", lambda self, body=fact.func, name=name: calls.update((name,)) or body(self))
    verdict_facts = {"_non_recurrent_point", "_plain_failure", "_generalized_failure", "wandering"}
    verdict_facts |= {"_blocks", "_block_overlap", "_usc_witness", "_irregularity"}
    read = set()
    for fc in [*gallery_complexes.values(), *(random_complex(seed) for seed in range(100))]:
        cls = Classifier(fc)
        for _ in range(2):
            cls.report()
            for _, check in THEOREM_CHECKS:
                check(cls)
        assert max(calls.values()) == 1, (fc, calls)
        assert cls.blocks() is cls.blocks()
        read |= calls.keys()
        calls.clear()
    assert verdict_facts <= read


@pytest.mark.parametrize(
    "extra",
    [
        "family f1 kind=annulus b0=c b1=g2 shrinks0=true",
        "family f1 kind=annulus b0=c b1=s shrinks0=true\naccum q kind=family_seq samples=f1 target=g2",
        "family f1 kind=annulus b0=c b1=s shrinks0=true\naccum q kind=family_seq samples=f1,g3 target=s",
    ],
)
def test_unresolved_ids_are_rejected_before_any_analysis(extra):
    # the analyses once reached these ids inside blocks and raised UnknownIdError
    head = "surface genus=0 orientable=true boundary=0\nsing c point kind=center\nsing s point kind=saddle\n"
    fc = parse(head + extra + "\n")
    assert "unresolved-id" in validate(fc).rules()
    for analyse in (classification_report, verify_theorems, lambda fc: extended_orbit(fc, "c")):
        with pytest.raises(PreconditionError, match="\n[^\n]+: unresolved-id \\(reference to unknown id 'g[23]'\\)"):
            analyse(fc)


def test_compact_extended_orbit_holding_a_saddle_chain_violates_finiteness():
    # the check reads only the compact leads, their members and the saddle
    # chains: a stand-in for the Classifier gives it the compact extended
    # orbit {s, h1, h2} of two homoclinic loops at s, holding the sample of a
    # chain (no sound flow has one, so no complex that validates is needed)
    chain = AccumulationSchema("q", SchemaKind.SADDLE_CHAIN, ("s",), frozenset({"t"}))
    loops = frozenset({"s", "h1", "h2"})
    rows = (
        ((("s",),), ("h1",), TheoremStatus.VIOLATION, "h1: members hold saddle chain q"),
        ((("x",),), ("h1",), TheoremStatus.HOLDS, ""),
        ((), (), TheoremStatus.INAPPLICABLE, "no compact extended orbits"),
    )
    for samples, leads, status, detail in rows:
        stand_in = SimpleNamespace(
            fc=SimpleNamespace(saddle_chains=tuple(dataclasses.replace(chain, samples=s) for s in samples)),
            iter_periodic_leads=lambda: iter(leads),
            members=lambda xid: loops,
        )
        assert check_extended_periodic_members(stand_in) == TheoremResult("extended-periodic-finiteness", status, detail)


@pytest.mark.parametrize(
    "name, n, chain",
    [("comb_torus", 640, False), ("double_center_sphere", 40, False), ("nested_saddles_disk", 40, True)],
)
def test_the_finiteness_check_reads_the_compact_leads_only_as_far_as_it_must(monkeypatch, name, n, chain):
    # with no saddle chain declared the first compact lead settles the check;
    # a chain makes it read the member kinds of every closed lead
    fc = build(name, {"n": n})
    assert bool(fc.saddle_chains) == chain
    calls = []
    kinds = classify.has_periodic_member_kinds
    monkeypatch.setattr(classify, "has_periodic_member_kinds", lambda fc, members: calls.append(members) or kinds(fc, members))
    cls = Classifier(fc)
    assert check_extended_periodic_members(cls).status is TheoremStatus.HOLDS
    assert len(calls) == (len(cls.leads) - len(cls.open_leads) if chain else 1)


def _has_set_cycle(engine, forward):
    """Whether two distinct expansion sets reach each other, where set ``i``
    steps to every set that an id ``i`` adjoins fires."""
    succ = [{j for oid in engine._adjoins(i, forward) for j in engine._fired(oid, forward)} for i in range(len(engine.sets))]
    reached = []
    for i in range(len(succ)):
        seen, stack = set(), [i]
        while stack:
            for j in succ[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        reached.append(seen)
    return any(i in reached[j] for i in range(len(succ)) for j in reached[i] if j != i)


# three saddles on a heteroclinic cycle s1 -> s2 -> s3 -> s1 with no way
# back along it, so each set digraph is one 3-cycle and no 2-cycle
DIRECTED_SADDLE_CYCLE = """\
surface genus=0 orientable=true boundary=0
sing s1 point kind=saddle
sing s2 point kind=saddle
sing s3 point kind=saddle
sing so point kind=source
sing so2 point kind=source
sing si point kind=sink
sing si2 point kind=sink
sing si3 point kind=sink
orbit o12 proper alpha=sing:s1 omega=sing:s2
orbit o23 proper alpha=sing:s2 omega=sing:s3
orbit o31 proper alpha=sing:s3 omega=sing:s1
orbit i1 proper alpha=sing:so omega=sing:s1
orbit i2 proper alpha=sing:so omega=sing:s2
orbit i3 proper alpha=sing:so omega=sing:s3
orbit e1 proper alpha=sing:s1 omega=sing:si
orbit e2 proper alpha=sing:s2 omega=sing:si
orbit e3 proper alpha=sing:s3 omega=sing:si
orbit r proper alpha=sing:so omega=sing:si
orbit r2 proper alpha=sing:so2 omega=sing:si2
orbit r3 proper alpha=sing:so2 omega=sing:si3
"""


def test_reach_matches_the_oracles(gallery_complexes):
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    complexes += [build("nested_saddles_disk", {"n": 40}), build("double_center_sphere", {"n": 40})]
    complexes.append(parse(DIRECTED_SADDLE_CYCLE))
    cyclic = {"plain": 0, "generalized": 0}
    for fc in complexes:
        cls = Classifier(fc)
        generalized = Expansion.generalized(fc)
        for xid in sorted(fc.all_ids):
            for d in Direction:
                assert classifier_orbit(cls, xid, d) == naive_extended_orbit(fc, xid, d), (xid, d)
                run = generalized.orbit(xid, d)
                assert classifier_orbit(cls, xid, d, generalized=True) == (run.members, run.self_readded), (xid, d)
        for kind, engine in (("plain", cls._plain), ("generalized", cls._generalized)):
            cyclic[kind] += sum(_has_set_cycle(engine, forward) for forward in (True, False))
    # set digraphs (one per complex and direction) whose condensation merges
    # two or more sets into one component: 144 and 240 of the corpus without
    # the directed cycle, plus its two
    assert cyclic == {"plain": 146, "generalized": 242}


def test_limit_cycle_of_saddle_connections():
    # sp winds onto the heteroclinic cycle, which is a closed curve of three
    # saddles and three arcs, and lies in the extended orbit of each of them
    fc = parse(DIRECTED_SADDLE_CYCLE + "orbit sp proper alpha=sing:so2 omega=set:o12,o23,o31,s1,s2,s3\n")
    assert validate(fc).ok
    cycle = frozenset({"s1", "s2", "s3", "o12", "o23", "o31"})
    assert Classifier(fc).limit_cycles() == [LimitCycle(cycle=cycle, witness="sp", side=CycleSide.OMEGA)]
    results = verify_theorems(fc)
    assert not any(r.status is TheoremStatus.VIOLATION for r in results)
    wandering = {r.theorem: r for r in results}["limit-cycles-force-wandering"]
    assert (wandering.status, wandering.detail) == (TheoremStatus.HOLDS, "wandering witness r")


def _eye_document():
    """double_center_sphere n=1 with a declared set eye holding the homoclinic
    loop of nsd1."""
    return parse(emit(build("double_center_sphere", {"n": 1})) + "saddleset eye members=nli1,nlo1,nsd1 isolated=true\n")


def test_ids_that_fire_two_expansion_sets():
    # the declared set eye holds the homoclinic loop of nsd1, so nsd1 and
    # both loop arcs fire {nsd1} and eye on either side, and their payload is
    # the union of two rows
    fc = _eye_document()
    assert validate(fc).ok
    assert not any(r.status is TheoremStatus.VIOLATION for r in verify_theorems(fc))
    cls = Classifier(fc)
    engine = Expansion.generalized(fc)
    twice = {(xid, forward) for xid in fc.all_ids for forward in (True, False) if len(engine._fired(xid, forward)) == 2}
    assert twice == {(xid, forward) for xid in ("nli1", "nlo1", "nsd1") for forward in (True, False)}
    for xid in sorted(fc.all_ids):
        for d in Direction:
            run = engine.orbit(xid, d)
            assert classifier_orbit(cls, xid, d, generalized=True) == (run.members, run.self_readded), (xid, d)
    assert cls.payload("nlo1", True, generalized=True) == frozenset({"nli1", "nlo1", "nsd1"})
    # two sets that share only a periodic orbit, which fires nothing, so
    # neither row reaches the other: x's payload needs both
    fc = parse(
        "surface genus=0 orientable=true boundary=0\nsing c point kind=center\nsing c2 point kind=center\n"
        "orbit p periodic\norbit q periodic\norbit x proper alpha=sing:c omega=orbit:p\n"
    )
    assert validate(fc).ok
    engine = Expansion(fc, [frozenset({"p"}), frozenset({"p", "q"})])
    assert engine.payloads(True) == {"x": frozenset({"p", "q"})}
    assert engine.orbit("x", Direction.FORWARD).members == frozenset({"p", "q", "x"})


def test_bulk_firing_map_matches_the_per_id_firing(gallery_complexes):
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    complexes += [parse(DIRECTED_SADDLE_CYCLE), _eye_document()]
    for fc in complexes:
        for engine in (Expansion.plain(fc), Expansion.generalized(fc)):
            for forward in (True, False):
                fired, adjoined = engine._sweep(forward)
                per_id = {xid: list(engine._fired(xid, forward)) for xid in sorted(fc.all_ids)}
                assert fired == {xid: sets for xid, sets in per_id.items() if sets}
                assert [set(adds) for adds in adjoined] == [
                    set(engine._adjoins(i, forward)) for i in range(len(engine.sets))
                ]


def test_only_the_classifier_builds_payload_tables(gallery_complexes, tmp_path, monkeypatch):
    built = []
    sweep = Expansion._sweep

    def counted(self, forward):
        built.append((self, forward))
        return sweep(self, forward)

    monkeypatch.setattr(Expansion, "_sweep", counted)
    for name, fc in gallery_complexes.items():
        path = tmp_path / f"{name}.fc"
        path.write_text(emit(fc))
        for xid in sorted(fc.all_ids):
            for d in Direction:
                extended_orbit(fc, xid, d)
                Expansion.generalized(fc).orbit(xid, d)
            with redirect_stdout(io.StringIO()):
                for argv in (["orbit", str(path), "--start", xid], ["orbit", str(path), "--start", xid, "--generalized"]):
                    assert cli.main(argv) == 0
                assert cli.main(["export-dot", str(path), "--overlay", xid]) == 0
    assert built == []
    # a report builds each side of an engine once, and nothing for an engine
    # without expansion sets: halfdisk_sphere has no saddle
    fc = gallery_complexes["halfdisk_sphere"]
    cls = Classifier(fc)
    cls.report()
    for xid in sorted(fc.all_ids):
        cls.members(xid)
        for forward in (True, False):
            cls.payload(xid, forward)
            cls.payload(xid, forward, generalized=True)
    assert cls._plain.sets == [] and cls._generalized.sets
    assert sorted((engine is cls._generalized, forward) for engine, forward in built) == [(True, False), (True, True)]


def test_reports_and_theorems_run_no_per_seed_fixpoint(monkeypatch):
    runs = []
    for name in ("_one_sided", "_fired"):
        method = getattr(Expansion, name)

        def counted(self, start, forward, method=method):
            runs.append((method.__name__, start, forward))
            return method(self, start, forward)

        monkeypatch.setattr(Expansion, name, counted)
    fc = build("nested_saddles_disk", {"n": 40})
    assert len(fc.all_ids) == 200
    classification_report(fc)
    verify_theorems(fc)
    # both read the bulk payload tables (Classifier.members and payload)
    assert runs == []
    # the counters see the per-seed fixpoint
    Expansion.plain(fc).orbit(sorted(fc.saddle_ids)[0], Direction.FORWARD)
    assert {name for name, _, _ in runs} == {"_one_sided", "_fired"}


def test_a_recurrence_scan_reads_each_payload_table_once(gallery_complexes, monkeypatch):
    reads = []
    payloads = Expansion.payloads

    def counted(self, forward):
        reads.append((self, forward))
        return payloads(self, forward)

    monkeypatch.setattr(Expansion, "payloads", counted)
    # a passing scan over 485 ids reads each side once, not once per scanned id
    cls = Classifier(build("double_center_sphere", {"n": 40}))
    assert cls.extended_recurrent().verdict and len(cls._scan_ids) > 2
    assert reads == [(cls._plain, True), (cls._plain, False)]
    # a per-instance cache keeps its first value in the instance's own dict,
    # where every later read finds it: a recomputed engine or id set would
    # be a new object; the class attribute keeps the method's docstring
    fc, plain = cls.fc, cls._plain
    assert vars(cls)["_plain"] is plain and cls._plain is plain
    assert vars(fc)["all_ids"] is fc.all_ids is fc.all_ids
    assert Classifier.leads.__doc__.startswith("One id per distinct two-sided extended orbit")
    assert "leads" not in vars(cls) and cls.leads is cls.leads and "leads" in vars(cls)
    # the caches write the instance dict directly; attributes stay frozen
    for name in ("all_ids", "surface", "sing_by_id"):
        with pytest.raises(FrozenInstanceError):
            setattr(fc, name, None)
    assert vars(fc)["all_ids"] is fc.all_ids
    # a scan that fails at its first positive side reads no backward table;
    # the generalized engine is built when its scan starts, and reads both
    reads.clear()
    cls = Classifier(gallery_complexes["halfdisk_sphere"])
    assert cls.extended_recurrent().witness.rule == "not-extended-positively-recurrent"
    assert reads == [(cls._plain, True)] and "_generalized" not in vars(cls)
    assert cls.generalized_recurrent().verdict
    assert cls._generalized is not cls._plain
    assert reads == [(cls._plain, True), (cls._generalized, True), (cls._generalized, False)]
    # an empty scan reads no table and builds no generalized engine
    reads.clear()
    cls = Classifier(FlowComplex.build(SurfaceInfo(1, True, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)]))
    assert cls._scan_ids == ()
    assert cls.extended_recurrent().verdict and cls.generalized_recurrent().verdict
    assert reads == [] and "_generalized" not in vars(cls)


def test_lead_scans_match_the_per_id_scans(gallery_complexes):
    """Scans over ``Classifier.leads`` give the answers of scans over every
    id, with member sets from the per-seed fixpoint as the reference."""
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    complexes += [build("nested_saddles_disk", {"n": 40}), build("double_center_sphere", {"n": 40})]
    found = {"open": 0, "chain": 0, "overlap": 0, "periodic": 0}
    for fc in complexes:
        cls = Classifier(fc)
        plain = Expansion.plain(fc)
        ids = sorted(fc.all_ids)
        members = {xid: plain.orbit(xid).members for xid in ids}
        blocks = {xid: orbit_set_closure(fc, members[xid]) for xid in ids}
        open_id = next((x for x in ids if not blocks[x] <= members[x]), None)
        assert min(cls.open_leads, default=None) == open_id
        chains = [s for s in fc.accumulation_schemas if s.kind is SchemaKind.SADDLE_CHAIN]
        chain_id = next((x for s in chains for x in ids if set(s.samples) <= blocks[x]), None)
        assert _block_with_infinite_singularities(cls) == chain_id
        pair = next(
            (
                (x, y)
                for i, x in enumerate(ids)
                for y in ids[i + 1 :]
                if blocks[x] != blocks[y] and not blocks[x].isdisjoint(blocks[y])
            ),
            None,
        )
        witness = cls.extended_pap().witness
        assert (witness.ids if witness else None) == pair
        for xid in ids:
            periodic = has_periodic_member_kinds(fc, members[xid]) and blocks[xid] <= members[xid]
            assert cls.extended_periodic(xid) == periodic, xid
            found["periodic"] += periodic
        found["open"] += open_id is not None
        found["chain"] += chain_id is not None
        found["overlap"] += pair is not None
    assert all(found.values()), found


def _generalized_scan(fc):
    """The first ``(id, side)`` that is not generalized recurrent, by per-seed
    fixpoints over a freshly built generalized engine."""
    engine = Expansion.generalized(fc)
    cls = Classifier(fc)
    for xid in sorted(fc.all_ids):
        for direction, side in ((Direction.FORWARD, "positively"), (Direction.BACKWARD, "negatively")):
            recurrent = cls.positively_recurrent if direction is Direction.FORWARD else cls.negatively_recurrent
            if recurrent(xid):
                continue
            fam = fc.family_by_id.get(xid)
            if fam is not None:
                if fam.kind is FamilyKind.CLOSED_EXTENDED_REGION:
                    continue
                return xid, side
            run = engine.orbit(xid, direction)
            if run.self_readded or any(xid in fc.closure(oid) for oid in run.members - {xid}):
                continue
            return xid, side
    return None


def test_generalized_verdict_on_the_plain_engine_matches_its_own_scan(gallery_complexes, monkeypatch):
    """With no declared set admitted the classifier answers generalized
    recurrence on its plain engine; the verdict, witness and rule match a
    scan over the generalized engine built on its own.  A complex that
    declares no saddle set reuses the plain engine without listing any set;
    one that declares some lists them whichever engine it keeps."""
    named = list(gallery_complexes.items()) + [(f"seed {seed}", random_complex(seed)) for seed in range(1000)]
    named += [(f"{name} n=40", build(name, {"n": 40})) for name in ("nested_saddles_disk", "double_center_sphere")]
    branches = {"reused": [], "separate": []}
    built = {"reused": 0, "separate": 0}
    verdicts = {"reused": set(), "separate": set()}
    built_with = Counter()
    admissions = []
    admit = orbits.generalized_saddle_sets

    def counted(fc):
        admissions.append(fc)
        return admit(fc)

    for name, fc in named:
        cls = Classifier(fc)
        admissions.clear()
        with monkeypatch.context() as patch:
            patch.setattr(orbits, "generalized_saddle_sets", counted)
            verdict = cls.generalized_recurrent()
            # the engine is built only when some point needs a generalized payload
            needed = "_generalized" in vars(cls)
            branch = "reused" if cls._generalized is cls._plain else "separate"
        assert (branch == "reused") == (Expansion.generalized(fc).sets == Expansion.plain(fc).sets), name
        branches[branch].append(name)
        built[branch] += needed
        verdicts[branch].add(verdict.verdict)
        if needed:
            declared = bool(fc.saddle_set_decls)
            assert bool(admissions) == declared, name
            built_with[branch, declared] += 1
        failure = _generalized_scan(fc)
        if failure is None:
            assert verdict == Verdict(True), name
        else:
            xid, side = failure
            assert verdict == Verdict(False, Witness((xid,), f"not-generalized-{side}-recurrent")), name
    # halfdisk_sphere and 47 sweep seeds declare an admitted set
    assert "halfdisk_sphere" in branches["separate"]
    assert (len(branches["reused"]), len(branches["separate"])) == (963, 48)
    assert built == {"reused": 563, "separate": 48}
    assert built_with == {("reused", False): 516, ("reused", True): 47, ("separate", True): 48}
    assert verdicts == {"reused": {True, False}, "separate": {True}}


def test_a_declared_set_that_is_no_saddle_set_fails_validate_and_every_analysis():
    # nothing outside the declared set {c1} accumulates on it and leaves it;
    # validate rejects the declaration, and every analysis refuses the complex
    # with that line (they once answered, over the declared set)
    fc = parse(
        "surface genus=0 orientable=true boundary=0\n"
        "sing c1 point kind=center\nsing c2 point kind=center\n"
        "family f kind=annulus b0=c1 b1=c2 shrinks0=true shrinks1=true\n"
        "saddleset q members=c1 isolated=true\n"
    )
    detail = "nothing outside the set accumulates on it and leaves it"
    assert [(v.id, v.rule, v.detail) for v in validate(fc).violations] == [("q", "saddleset-not-saddle-set", detail)]
    for analyse in (Classifier, classification_report, verify_theorems, Expansion.generalized, orbits.generalized_saddle_sets):
        with pytest.raises(PreconditionError, match=f"validate, which reports:\nq: saddleset-not-saddle-set \\({detail}\\)$"):
            analyse(fc)


def test_unknown_ids_raise_from_both_queries(gallery_complexes):
    # an unknown id is neither a silent empty payload nor a bare KeyError,
    # whether or not a report has built the tables
    fc = gallery_complexes["halfdisk_sphere"]
    for report_first in (False, True):
        cls = Classifier(fc)
        if report_first:
            cls.report()
        with pytest.raises(UnknownIdError, match="ghost"):
            cls.members("ghost")
        for forward in (True, False):
            for generalized in (False, True):
                with pytest.raises(UnknownIdError, match="ghost"):
                    cls.payload("ghost", forward, generalized)


@pytest.mark.parametrize("query", ["block", "extension_closed", "extended_periodic"])
def test_per_id_queries_check_the_id_before_building(gallery_complexes, query):
    # an unknown or unhashable id raises before any payload table or block is built
    cls = Classifier(gallery_complexes["nested_saddles_disk"])
    with pytest.raises(UnknownIdError, match="nope"):
        getattr(cls, query)("nope")
    with pytest.raises(PreconditionError, match=r"an id is a string, not \[\]"):
        getattr(cls, query)([])
    assert set(vars(cls)) == {"fc"}  # no table, block or fact is kept


def set_scans_match_the_per_id_scans(fc):
    """Assert that every scan decided by set algebra gives the verdict and
    witness of its per-id reference; return which references found a
    failure, so a corpus can show that each one discriminates."""
    cls, ref = Classifier(fc), Classifier(fc)
    report = cls.report()
    ids = sorted(fc.all_ids)
    assert [cls.positively_recurrent(x) for x in ids] == [naive_recurrent(fc, x, True) for x in ids]
    assert [cls.negatively_recurrent(x) for x in ids] == [naive_recurrent(fc, x, False) for x in ids]
    assert report.recurrent == naive_recurrent_flow(fc)
    assert report.extended_recurrent == naive_extended_recurrent(ref, generalized=False)
    assert report.generalized_recurrent == naive_extended_recurrent(ref, generalized=True)
    blocks = naive_blocks(ref)
    assert list(cls.blocks().items()) == list(blocks.items())
    assert cls.leads == tuple(blocks)
    periodic = naive_periodic_leads(ref)
    assert list(cls.iter_periodic_leads()) == [x for x in cls.leads if cls.extended_periodic(x)] == periodic
    open_ids = naive_open_ids(ref)
    assert list(cls.open_ids) == open_ids
    missing = naive_open_extension_missing_dense_side(ref)
    assert _open_extension_missing_dense_side(cls) == missing
    return {
        "not recurrent": not report.recurrent.verdict,
        "not extended recurrent": not report.extended_recurrent.verdict,
        "not generalized recurrent": not report.generalized_recurrent.verdict,
        "compact": bool(periodic),
        "open": bool(open_ids),
        "missing dense side": missing is not None,
    }


def test_set_scans_match_the_per_id_scans(gallery_complexes):
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    complexes += [build(name, {"n": 40}) for name in ("nested_saddles_disk", "double_center_sphere")]
    found = {}
    for fc in complexes:
        for what, failed in set_scans_match_the_per_id_scans(fc).items():
            found[what] = found.get(what, 0) + failed
    assert all(found.values()), found


def test_recurrence_implies_extended_implies_generalized_recurrence(gallery_complexes):
    """Extension only adds points, and the generalized sets include every
    single saddle, so recurrent => extended recurrent => generalized
    recurrent, per point and side and for the flow; each flow verdict is the
    conjunction of its per-point answers, and every strict step occurs."""
    flows = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    per_flow, per_point = Counter(), Counter()
    for fc in flows:
        cls = Classifier(fc)
        holds = [True, True, True]
        for xid in sorted(fc.all_ids):
            for forward in (True, False):
                recurrent = cls.positively_recurrent(xid) if forward else cls.negatively_recurrent(xid)
                point = (
                    recurrent,
                    cls.extended_recurrent_point(xid, forward),
                    cls.extended_recurrent_point(xid, forward, generalized=True),
                )
                per_point[point] += 1
                holds = [h and p for h, p in zip(holds, point)]
        flow = (cls.recurrent_flow().verdict, cls.extended_recurrent().verdict, cls.generalized_recurrent().verdict)
        assert flow == tuple(holds), fc
        per_flow[flow] += 1
    T, F = True, False
    assert per_flow == {(T, T, T): 400, (F, T, T): 260, (F, F, T): 48, (F, F, F): 301}
    assert per_point == {(T, T, T): 14198, (F, T, T): 2656, (F, F, T): 384, (F, F, F): 1014}


def test_concurrent_first_reads_give_the_single_threaded_results(gallery_complexes, monkeypatch):
    """The per-complex caches take no lock.  Eight threads share one unread
    complex and one ``Classifier``, start together, each at its own step of
    the same four, and switch as often as the interpreter allows; each gets
    what a single-threaded run on a fresh parse gets.  Then a reader that
    arrives while the first fill of ``members`` is paused inside it, at its
    first join of two payloads, gets the whole table: a cache is published
    only once it is filled."""
    threads_n = 8

    def run(fc, cls, first=0):
        steps = (
            lambda: classification_report(fc),
            lambda: verify_theorems(fc),
            cls.report,
            lambda: [cls.members(xid) for xid in sorted(fc.all_ids)],
        )
        order = [(first + k) % len(steps) for k in range(len(steps))]
        found = {k: steps[k]() for k in order}
        return [found[k] for k in range(len(steps))]

    for source in (build("double_center_sphere", {"n": 40}), gallery_complexes["halfdisk_sphere"]):
        text = emit(source)
        fresh = parse(text)
        expected = run(fresh, Classifier(fresh))
        fc = parse(text)
        cls = Classifier(fc)
        start = threading.Barrier(threads_n)
        results = [None] * threads_n

        def work(i):
            start.wait(timeout=10)
            results[i] = run(fc, cls, i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * threads_n

    fc = build("double_center_sphere", {"n": 40})
    ids = sorted(fc.all_ids)
    expected = [Classifier(fc).members(xid) for xid in ids]
    cls = Classifier(fc)
    paused, resume = threading.Event(), threading.Event()
    join = classify._join

    def pausing_join(fwd, bwd):
        if not paused.is_set():
            paused.set()
            resume.wait(timeout=10)
        return join(fwd, bwd)

    monkeypatch.setattr(classify, "_join", pausing_join)
    first: list = []
    filling = threading.Thread(target=lambda: first.append([cls.members(xid) for xid in ids]))
    filling.start()
    try:
        assert paused.wait(timeout=10)
        assert [cls.members(xid) for xid in ids] == expected
    finally:
        resume.set()
        filling.join(timeout=10)
    assert not filling.is_alive() and first == [expected]


_REVERSED_KIND = {PointKind.SINK: PointKind.SOURCE, PointKind.SOURCE: PointKind.SINK}


def reverse_time(fc):
    """The complex of the reversed flow: each class's alpha and omega limits
    swapped, and sinks with sources.  Families, schemas and saddle set
    declarations do not depend on the direction of time."""
    return dataclasses.replace(
        fc,
        singular_sets=tuple(dataclasses.replace(s, kind=_REVERSED_KIND.get(s.kind, s.kind)) for s in fc.singular_sets),
        orbit_classes=tuple(dataclasses.replace(o, alpha=o.omega, omega=o.alpha) for o in fc.orbit_classes),
    )


def test_reversing_time_changes_no_answer(gallery_complexes):
    # non-wandering, recurrence, p.a.p. and R-closedness are symmetric in
    # time, and a positive semi-orbit of the reversed flow is a negative one
    # of the flow, on both engines; witnesses name the positive side first,
    # so they may differ
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(200)]
    sides = ((True, Direction.FORWARD, Direction.BACKWARD), (False, Direction.BACKWARD, Direction.FORWARD))
    for fc in complexes:
        back = reverse_time(fc)
        assert validate(back).rules() == validate(fc).rules() == frozenset()
        cls, rev = Classifier(fc), Classifier(back)
        verdicts = [{name: v["verdict"] for name, v in c.report().as_dict().items()} for c in (cls, rev)]
        assert verdicts[0] == verdicts[1] and len(verdicts[0]) == 7
        assert [r.status for r in verify_theorems(back)] == [r.status for r in verify_theorems(fc)]
        engines = [(Expansion.plain(c), Expansion.generalized(c)) for c in (fc, back)]
        for xid in sorted(fc.all_ids):
            assert rev.members(xid) == cls.members(xid), xid
            assert (rev.positively_recurrent(xid), rev.negatively_recurrent(xid)) == (
                cls.negatively_recurrent(xid),
                cls.positively_recurrent(xid),
            ), xid
            for forward, direction, opposite in sides:
                for generalized in (False, True):
                    assert rev.payload(xid, forward, generalized) == cls.payload(xid, not forward, generalized), xid
                    assert rev.extended_recurrent_point(xid, forward, generalized) == cls.extended_recurrent_point(
                        xid, not forward, generalized
                    ), xid
                for ours, theirs in zip(*engines):
                    a, b = theirs.orbit(xid, direction), ours.orbit(xid, opposite)
                    assert (a.members, a.added_round, a.depth, a.self_readded) == (
                        b.members,
                        b.added_round,
                        b.depth,
                        b.self_readded,
                    ), (xid, direction)


def rename(fc, to):
    """The complex with each id ``x`` renamed ``to[x]``."""

    def ids(xs):
        return frozenset(to[x] for x in xs)

    def ref(r):
        return None if r is None else dataclasses.replace(r, ids=tuple(to[x] for x in r.ids))

    replace = dataclasses.replace
    return replace(
        fc,
        singular_sets=tuple(replace(s, id=to[s.id]) for s in fc.singular_sets),
        orbit_classes=tuple(
            replace(o, id=to[o.id], alpha=ref(o.alpha), omega=ref(o.omega), closure_decl=o.closure_decl and ids(o.closure_decl))
            for o in fc.orbit_classes
        ),
        families=tuple(replace(f, id=to[f.id], boundary0=ids(f.boundary0), boundary1=ids(f.boundary1)) for f in fc.families),
        accumulation_schemas=tuple(
            replace(a, id=to[a.id], samples=tuple(to[x] for x in a.samples), target=ids(a.target))
            for a in fc.accumulation_schemas
        ),
        saddle_set_decls=tuple(replace(d, id=to[d.id], members=ids(d.members)) for d in fc.saddle_set_decls),
    )


def order_reversing_names(fc):
    """The permutation of the record ids that reverses their order."""
    groups = (fc.singular_sets, fc.orbit_classes, fc.families, fc.accumulation_schemas, fc.saddle_set_decls)
    names = sorted(r.id for group in groups for r in group)
    return dict(zip(names, reversed(names)))


def verdicts_and_statuses(fc):
    report = Classifier(fc).report().as_dict()
    return [v["verdict"] for v in report.values()], [r.status for r in verify_theorems(fc)]


def test_renaming_ids_changes_no_answer(gallery_complexes):
    # no answer depends on how the ids are named or ordered; witnesses name
    # the least failing id, so they may differ
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(200)]
    for fc in complexes:
        to = order_reversing_names(fc)
        renamed = rename(fc, to)
        assert validate(renamed).rules() == validate(fc).rules() == frozenset()
        assert verdicts_and_statuses(renamed) == verdicts_and_statuses(fc)
        cls, ren = Classifier(fc), Classifier(renamed)
        for xid in sorted(fc.all_ids):
            assert ren.members(to[xid]) == frozenset(to[m] for m in cls.members(xid)), xid
    for name in ("nested_saddles_disk", "double_center_sphere"):
        fc = build(name, {"n": 40})
        assert verdicts_and_statuses(rename(fc, order_reversing_names(fc))) == verdicts_and_statuses(fc), name
