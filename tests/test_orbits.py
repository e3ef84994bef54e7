import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomplex import (
    Classifier,
    CycleSide,
    Direction,
    Expansion,
    Family,
    FamilyKind,
    FlowComplex,
    InvalidSaddleSetError,
    LimitRef,
    OrbitClass,
    OrbitKind,
    PointKind,
    PreconditionError,
    Shape,
    SingularSet,
    SurfaceInfo,
    build,
    cli,
    emit,
    extended_orbit,
    generalized_saddle_sets,
    is_isolated,
    is_saddle_set,
    parse,
    random_complex,
    stable_set,
    unstable_set,
    validate,
)
from flowcomplex.orbits import orbit_set_closure

from naive_oracle import expand_once, naive_extended_orbit, naive_extension, reachability_members


def test_unstable_set_plus_saddle(gallery_complexes):
    fc = gallery_complexes["plus_saddle"]
    assert unstable_set(fc, "s") == frozenset({"c", "d"})
    assert stable_set(fc, "s") == frozenset({"a", "b"})


def test_wing_sets_genus2_junction(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    assert unstable_set(fc, "s2") == frozenset({"u1", "a2"})
    assert stable_set(fc, "s1") == frozenset({"w1", "a2"})
    assert unstable_set(fc, "s1") == frozenset({"c1", "c2"})
    assert stable_set(fc, "s2") == frozenset({"c1", "c2"})


def test_homoclinic_loop_appears_once(gallery_complexes):
    fc = gallery_complexes["double_center_sphere"]
    assert unstable_set(fc, "nsd1") == frozenset({"nlo1", "nli1"})
    assert stable_set(fc, "nsd1") == frozenset({"nlo1", "nli1"})


def test_wing_sets_require_a_saddle(gallery_complexes):
    fc = gallery_complexes["sphere_meridian"]
    with pytest.raises(PreconditionError):
        unstable_set(fc, "q")
    with pytest.raises(PreconditionError):
        stable_set(fc, "n")


def test_extension_of_periodic_orbit_is_trivial(gallery_complexes):
    fc = gallery_complexes["sphere_limit_cycle"]
    ext = extended_orbit(fc, "g", Direction.BOTH)
    assert ext.members == frozenset({"g"})
    assert ext.depth == 0 and not ext.self_readded


def test_extension_stops_at_non_saddle_fixed_point(gallery_complexes):
    fc = gallery_complexes["sphere_meridian"]
    ext = extended_orbit(fc, "m", Direction.FORWARD)
    assert ext.members == frozenset({"m"})
    assert ext.depth == 0


def test_extension_of_junction_arc(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    ext = extended_orbit(fc, "c1", Direction.BOTH)
    assert ext.members == frozenset({"a2", "c1", "c2", "s1", "s2", "u1", "w1"})
    assert ext.self_readded
    for forward in (True, False):
        members, _ = naive_extended_orbit(fc, "c1", Direction.FORWARD if forward else Direction.BACKWARD)
        assert members == reachability_members(fc, "c1", forward)


def test_seed_provenance_and_rounds(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    ext = extended_orbit(fc, "c1", Direction.FORWARD)
    assert ext.added_round["c1"] == 0
    assert ext.added_round["s2"] == 1 and ext.added_round["u1"] == 1
    assert ext.added_round["s1"] == 2 and ext.added_round["c2"] == 2
    assert ext.depth == 2


def test_two_sided_merge_keeps_earlier_rounds(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    fwd = extended_orbit(fc, "c1", Direction.FORWARD)
    bwd = extended_orbit(fc, "c1", Direction.BACKWARD)
    both = extended_orbit(fc, "c1", Direction.BOTH)
    assert both.members == fwd.members | bwd.members
    assert both.depth == max(fwd.depth, bwd.depth)
    assert both.self_readded == (fwd.self_readded or bwd.self_readded)
    for mid in both.members:
        rounds = [run.added_round[mid] for run in (fwd, bwd) if mid in run.members]
        assert both.added_round[mid] == min(rounds)


def test_direction_accepts_plain_strings(gallery_complexes):
    fc = gallery_complexes["plus_saddle"]
    assert extended_orbit(fc, "a", "fwd").members == extended_orbit(fc, "a", Direction.FORWARD).members
    plain = Expansion.plain(fc)
    unknown = [
        lambda: extended_orbit(fc, "a", "sideways"),
        lambda: plain.orbit("a", "sideways"),
        lambda: Expansion.admit(fc, ()).orbit("a", "sideways"),
    ]
    for query in unknown:
        # PreconditionError is a ValueError, as Direction("sideways") raises
        with pytest.raises(PreconditionError, match="'sideways' is not a direction"):
            query()


def test_generalized_extended_orbit_takes_its_saddle_sets(gallery_complexes):
    # with no sets given it would expand nothing, so it takes none by default
    fc = gallery_complexes["plus_saddle"]
    with pytest.raises(TypeError):
        Expansion.admit(fc)
    gen = Expansion.admit(fc, generalized_saddle_sets(fc)).orbit("a", Direction.BOTH)
    assert gen.members == extended_orbit(fc, "a", Direction.BOTH).members == {"a", "c", "d", "s"}


def test_extended_periodic_eye(gallery_complexes):
    cls = Classifier(gallery_complexes["double_center_sphere"])
    assert cls.extended_periodic("nlo1")
    assert cls.extended_periodic("nsd1")


def test_extended_periodic_rejects_dense_members(gallery_complexes):
    assert not Classifier(gallery_complexes["genus2_mixed"]).extended_periodic("c1")


def test_extended_periodic_rejects_singletons(gallery_complexes):
    cls = Classifier(gallery_complexes["sphere_meridian"])
    assert not cls.extended_periodic("q")
    # a periodic orbit alone is compact and not a point
    assert cls.extended_periodic("fn")


def test_truncated_chain_is_not_closed(gallery_complexes):
    fc = gallery_complexes["nested_saddles_disk"]
    ext = extended_orbit(fc, "a1", Direction.BOTH)
    assert not orbit_set_closure(fc, ext.members) <= ext.members
    assert not Classifier(fc).extended_periodic("a1")


def test_limit_cycle_detection(gallery_complexes):
    fc = gallery_complexes["sphere_limit_cycle"]
    cycles = Classifier(fc).limit_cycles()
    assert len(cycles) == 1
    assert cycles[0].cycle == frozenset({"g"})
    sides = set()
    for o in fc.orbit_classes:
        if o.alpha is not None and o.alpha.resolved() == cycles[0].cycle:
            sides.add(CycleSide.ALPHA)
        if o.omega is not None and o.omega.resolved() == cycles[0].cycle:
            sides.add(CycleSide.OMEGA)
    assert sides == {CycleSide.ALPHA, CycleSide.OMEGA}


def test_no_limit_cycles_in_nonwandering_gallery(gallery_complexes):
    for name in ("sphere_meridian", "genus2_mixed", "genus2_double_irrational", "nested_saddles_disk",
                 "double_center_sphere", "comb_torus"):
        assert Classifier(gallery_complexes[name]).limit_cycles() == []


def test_no_refs_means_no_cycles():
    fc = FlowComplex.build(SurfaceInfo(1, True, 0), orbit_classes=[OrbitClass("p", OrbitKind.PERIODIC)])
    assert Classifier(fc).limit_cycles() == []


def test_generalized_with_singleton_saddles_matches_extended(gallery_complexes):
    for fc in gallery_complexes.values():
        singletons = Expansion.admit(fc, [{s} for s in sorted(fc.saddle_ids)])
        for xid in sorted(fc.all_ids):
            for direction in (Direction.FORWARD, Direction.BACKWARD, Direction.BOTH):
                plain = extended_orbit(fc, xid, direction)
                gen = singletons.orbit(xid, direction)
                assert gen.members == plain.members, (xid, direction)
                assert gen.self_readded == plain.self_readded, (xid, direction)
                assert (gen.added_round, gen.depth) == (plain.added_round, plain.depth), (xid, direction)


def test_generalized_halfdisk_covers_both_half_disks(gallery_complexes):
    fc = gallery_complexes["halfdisk_sphere"]
    engine = Expansion.admit(fc, generalized_saddle_sets(fc))
    for start in ("rp", "lp", "rb", "lb"):
        fwd = engine.orbit(start, Direction.FORWARD)
        bwd = engine.orbit(start, Direction.BACKWARD)
        assert fwd.members == bwd.members == frozenset({"rp", "rb", "lp", "lb", "pp", "pm"})
        assert fwd.self_readded and bwd.self_readded


def test_generalized_comb_has_no_opening(gallery_complexes):
    fc = gallery_complexes["comb_torus"]
    ext = Expansion.admit(fc, generalized_saddle_sets(fc)).orbit("z0", Direction.BOTH)
    assert ext.members == frozenset({"z0"})
    assert ext.depth == 0


def test_saddle_set_verdicts(gallery_complexes):
    fc = gallery_complexes["halfdisk_sphere"]
    verdict = is_saddle_set(fc, {"pp"})
    assert verdict.verdict and verdict.witness == "pd"
    fc = gallery_complexes["comb_torus"]
    assert is_saddle_set(fc, {"q0"}).verdict


def test_shrinking_family_members_do_not_witness():
    fc = FlowComplex.build(
        SurfaceInfo(0, True, 1),
        singular_sets=[SingularSet("c", Shape.POINT, PointKind.CENTER)],
        orbit_classes=[OrbitClass("bd", OrbitKind.PERIODIC)],
        families=[
            Family("f", FamilyKind.PERIODIC_ANNULUS, frozenset({"bd"}), frozenset({"c"}), shrinks1=True)
        ],
    )
    assert not is_saddle_set(fc, {"c"}).verdict


def test_isolation_verdicts(gallery_complexes):
    fc = gallery_complexes["halfdisk_sphere"]
    assert is_isolated(fc, {"pp"}) and is_isolated(fc, {"pm"})
    comb = gallery_complexes["comb_torus"]
    assert not is_isolated(comb, {"q0"})
    assert is_isolated(comb, comb.all_ids)


def test_invalid_saddle_set_is_an_error(gallery_complexes):
    fc = gallery_complexes["comb_torus"]
    with pytest.raises(InvalidSaddleSetError, match=r"\['q0'\] is not isolated from minimal sets"):
        Expansion.admit(fc, [frozenset({"q0"})])
    # a bare string is a name, not a set: declared sets are admitted
    # through Expansion.generalized, which checks their flags
    with pytest.raises(InvalidSaddleSetError, match="'q' is not an id collection"):
        Expansion.admit(fc, ["q"])
    with pytest.raises(InvalidSaddleSetError, match="'ss0' is not an id collection"):
        Expansion.admit(fc, ["ss0"])
    with pytest.raises(InvalidSaddleSetError, match="^None is not an id collection$"):
        Expansion.admit(fc, [None])
    with pytest.raises(InvalidSaddleSetError, match="^5 is not a collection of id collections$"):
        Expansion.admit(fc, 5)


def test_a_declared_single_saddle_is_admitted(tmp_path):
    # the degenerate case: a single saddle passes without the saddle-set
    # criterion, whether it is given as a set or declared
    fc = parse(emit(build("plus_saddle")) + "saddleset x members=s isolated=true\n")
    assert validate(fc).ok
    assert not is_saddle_set(fc, {"s"}).verdict
    assert generalized_saddle_sets(fc) == [frozenset({"s"})]
    plain = extended_orbit(fc, "a", Direction.BOTH)
    for engine in (Expansion.admit(fc, [{"s"}]), Expansion.generalized(fc)):
        assert engine.orbit("a", Direction.BOTH) == plain
    path = tmp_path / "plus.fc"
    path.write_text(emit(fc))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["classify", str(path)]) == 0
        assert cli.main(["orbit", str(path), "--start", "a", "--generalized"]) == 0


def test_admission_agrees_with_the_declarations(gallery_complexes):
    # a declared set is listed exactly when it passes admission on its own
    flows = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    outcomes = set()
    for fc in flows:
        listed = generalized_saddle_sets(fc)
        for decl in fc.saddle_set_decls:
            try:
                Expansion.admit(fc, [decl.members])
                admitted = True
            except InvalidSaddleSetError:
                admitted = False
            assert admitted == (decl.members in listed), decl
            outcomes.add(admitted)
    assert outcomes == {True, False}


def test_saddle_set_requires_invariant_closed_input(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    with pytest.raises(PreconditionError):
        is_saddle_set(fc, {"c1"})  # closure escapes to the saddles
    with pytest.raises(PreconditionError):
        is_isolated(fc, {"c1"})


def test_every_admission_path_rejects_a_set_that_is_not_invariant_closed(gallery_complexes):
    # validate flags the declaration; the library calls below skip validate
    fc = parse(emit(gallery_complexes["genus2_mixed"]) + "saddleset q members=c1 isolated=true\n")
    assert [v.rule for v in validate(fc).violations] == ["saddleset-not-invariant"]
    message = r"set is not invariant-closed: closure of c1 adds \['s1', 's2'\]"
    with pytest.raises(InvalidSaddleSetError, match=message):
        Expansion.admit(fc, [{"c1"}])
    with pytest.raises(InvalidSaddleSetError, match=message):
        generalized_saddle_sets(fc)
    with pytest.raises(InvalidSaddleSetError, match=message):
        Expansion.generalized(fc)


def test_monotone_fixpoint_on_fixtures(gallery_complexes):
    for fc in gallery_complexes.values():
        for xid in sorted(fc.all_ids):
            for forward in (True, False):
                direction = Direction.FORWARD if forward else Direction.BACKWARD
                ext = extended_orbit(fc, xid, direction)
                assert expand_once(fc, ext.members, forward) == ext.members
                rounds = sorted(ext.added_round.values())
                assert rounds[0] == 0 and rounds[-1] == ext.depth


def test_symmetry_of_membership_on_fixtures(gallery_complexes):
    for fc in gallery_complexes.values():
        orbits = {xid: extended_orbit(fc, xid, Direction.BOTH).members for xid in fc.all_ids}
        for xid, members in orbits.items():
            assert xid in members  # reflexive
            for yid in members:
                assert xid in orbits[yid], (xid, yid)


def test_non_transitivity_witness_exists(gallery_complexes):
    fc = gallery_complexes["plus_saddle"]
    orbits = {xid: extended_orbit(fc, xid, Direction.BOTH).members for xid in fc.all_ids}
    witnesses = [
        (x, y)
        for x, members in orbits.items()
        for y in members
        if orbits[y] != members
    ]
    assert witnesses
    assert ("a", "c") in witnesses


def test_saddle_count_in_extension_is_bounded(gallery_complexes):
    for fc in gallery_complexes.values():
        total = len(fc.saddle_ids)
        for xid in sorted(fc.all_ids):
            members = extended_orbit(fc, xid, Direction.BOTH).members
            assert len(members & fc.saddle_ids) <= total


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), start_pick=st.integers(min_value=0, max_value=200))
def test_oracle_agreement_on_random_complexes(seed, start_pick):
    fc = random_complex(seed)
    ids = sorted(fc.all_ids)
    xid = ids[start_pick % len(ids)]
    for direction in (Direction.FORWARD, Direction.BACKWARD, Direction.BOTH):
        ext = extended_orbit(fc, xid, direction)
        naive = naive_extension(fc, xid, direction)
        assert ext.members == naive.members
        assert ext.self_readded == naive.self_readded
        assert ext.added_round == naive.added_round
        assert ext.depth == naive.depth
