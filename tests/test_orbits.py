import io
import random
from collections import Counter
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
from flowcomplex import model, orbits
from flowcomplex.orbits import SaddleSetVerdict, _strong_components, orbit_set_closure

from naive_oracle import expand_once, naive_extended_orbit, naive_extension, naive_saddle_set, reachability_members


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
        lambda: Expansion(fc, []).orbit("a", "sideways"),
    ]
    for query in unknown:
        # PreconditionError is a ValueError, as Direction("sideways") raises
        with pytest.raises(PreconditionError, match="'sideways' is not a direction"):
            query()


def test_generalized_extended_orbit_takes_its_saddle_sets(gallery_complexes):
    # with no sets given it would expand nothing, so it takes none by default
    fc = gallery_complexes["plus_saddle"]
    with pytest.raises(TypeError):
        Expansion(fc)
    gen = Expansion.generalized(fc).orbit("a", Direction.BOTH)
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
        singletons = Expansion(fc, [frozenset({s}) for s in sorted(fc.saddle_ids)])
        for xid in sorted(fc.all_ids):
            for direction in (Direction.FORWARD, Direction.BACKWARD, Direction.BOTH):
                plain = extended_orbit(fc, xid, direction)
                gen = singletons.orbit(xid, direction)
                assert gen.members == plain.members, (xid, direction)
                assert gen.self_readded == plain.self_readded, (xid, direction)
                assert (gen.added_round, gen.depth) == (plain.added_round, plain.depth), (xid, direction)


def test_generalized_halfdisk_covers_both_half_disks(gallery_complexes):
    fc = gallery_complexes["halfdisk_sphere"]
    engine = Expansion.generalized(fc)
    for start in ("rp", "lp", "rb", "lb"):
        fwd = engine.orbit(start, Direction.FORWARD)
        bwd = engine.orbit(start, Direction.BACKWARD)
        assert fwd.members == bwd.members == frozenset({"rp", "rb", "lp", "lb", "pp", "pm"})
        assert fwd.self_readded and bwd.self_readded


def test_generalized_comb_has_no_opening(gallery_complexes):
    fc = gallery_complexes["comb_torus"]
    ext = Expansion.generalized(fc).orbit("z0", Direction.BOTH)
    assert ext.members == frozenset({"z0"})
    assert ext.depth == 0


def test_a_one_shot_orbit_builds_the_limit_index_only_when_a_set_fires():
    # comb_torus has no saddle and its declared set is not isolated, so no
    # query fires a set; in plus_saddle, r1 runs from the source to a sink
    # and fires nothing, while a runs into the saddle
    queries = [("comb_torus", xid, False) for xid in sorted(build("comb_torus").all_ids)]
    queries += [("plus_saddle", "r1", False), ("plus_saddle", "a", True)]
    for name, xid, fires in queries:
        for engine in (Expansion.plain, Expansion.generalized):
            fc = build(name)
            engine(fc).orbit(xid)
            assert ("classes_by_limit" in fc.__dict__) == fires, (name, xid, engine)


def test_saddle_set_verdicts(gallery_complexes):
    fc = gallery_complexes["halfdisk_sphere"]
    verdict = is_saddle_set(fc, {"pp"})
    assert verdict.verdict and verdict.witness == "pd"
    fc = gallery_complexes["comb_torus"]
    assert is_saddle_set(fc, {"q0"}).verdict


def test_saddle_set_witness_matches_the_whole_id_scan(gallery_complexes):
    """``is_saddle_set`` walks only the ids that can accumulate on the set;
    its verdict, witness and errors are those of a scan over every id outside
    the set.  The sets are every declared set, every single saddle, and the
    first 20 ids of each complex, each alone (most are not invariant-closed,
    an error) and with its closure."""
    complexes = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    complexes.append(build("comb_torus", {"n": 640}))
    outcomes = Counter()

    def outcome(check, fc, members):
        try:
            return check(fc, members)
        except PreconditionError as exc:
            return type(exc), str(exc)

    for fc in complexes:
        sets = [decl.members for decl in fc.saddle_set_decls]
        sets += [frozenset({sid}) for sid in sorted(fc.saddle_ids)]
        for xid in sorted(fc.all_ids)[:20]:
            sets += [frozenset({xid}), fc.closure(xid)]
        for members in sets:
            found = outcome(is_saddle_set, fc, members)
            assert found == outcome(naive_saddle_set, fc, members), (fc, sorted(members))
            outcomes[found.verdict if isinstance(found, SaddleSetVerdict) else "error"] += 1
    assert outcomes.keys() == {True, False, "error"}, outcomes


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


# a torus point z onto which a sequence of shrinking annuli converges, grazed
# by a locally dense class u, which makes {z} a saddle set
FAMILY_SEQUENCE_TORUS = (
    "surface genus=1 orientable=true boundary=0\n"
    "sing c1 point kind=center\nsing c2 point kind=center\nsing c3 point kind=center\nsing c4 point kind=center\n"
    "sing z point kind=other\norbit u dense closure=u,z\n"
    "family f1 kind=annulus b0=c1 b1=c2 shrinks0=true shrinks1=true\n"
    "family f2 kind={kind} b0=c3 b1=c4 shrinks0=true shrinks1=true\n"
    "accum seq kind=family_seq samples=f1,f2 target=z\n"
)


def test_a_family_sequence_of_shrinking_annuli_denies_isolation():
    fc = parse(FAMILY_SEQUENCE_TORUS.format(kind="annulus") + "saddleset q members=z isolated=false\n")
    assert validate(fc).ok
    assert is_saddle_set(fc, {"z"}) == SaddleSetVerdict(True, "u")
    assert not is_isolated(fc, {"z"})
    # the declaration agrees, so admission passes and lists no set
    assert generalized_saddle_sets(fc) == []
    # a sequence with a sample that is not an annulus accumulates no minimal sets
    assert is_isolated(parse(FAMILY_SEQUENCE_TORUS.format(kind="region")), {"z"})


def test_an_inconsistent_isolated_flag_is_an_error():
    fc = parse(FAMILY_SEQUENCE_TORUS.format(kind="annulus") + "saddleset q members=z isolated=true\n")
    detail = "declared isolated=true, but minimal sets accumulate on it"
    assert [(v.id, v.rule, v.detail) for v in validate(fc).violations] == [("q", "saddleset-isolated-flag", detail)]
    # the listing refuses the complex (it once listed the flagged set)
    with pytest.raises(PreconditionError, match=f"\nq: saddleset-isolated-flag \\({detail}\\)$"):
        generalized_saddle_sets(fc)


def test_admission_checks_each_declared_set_once(gallery_complexes, monkeypatch):
    """The first ``validate`` of a complex runs the saddle-set and isolation
    tests once per declared set, the first only for a set that is not a
    single saddle; a second ``validate`` and ``generalized_saddle_sets`` run
    neither.  The public predicates check that their own argument is
    invariant-closed."""
    calls = []

    def counted(name, test):
        def wrapped(fc, members):
            calls.append((name, members))
            return test(fc, members)

        return wrapped

    for name in ("_saddle_witness", "_isolated"):
        monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
    both = ("_saddle_witness", "_isolated")
    plus = parse(emit(build("plus_saddle")) + "saddleset x members=s isolated=true\n")
    # halfdisk_sphere declares its poles pm and pp, which are not saddles;
    # each complex is new, as the report is kept with the complex
    cases = [
        (build("halfdisk_sphere"), [(test, "pm") for test in both] + [(test, "pp") for test in both]),
        (build("comb_torus"), [(test, "q0") for test in both]),
        (plus, [("_isolated", "s")]),
    ]
    for fc, expected in cases:
        calls.clear()
        assert validate(fc).ok
        assert calls == [(test, frozenset({mid})) for test, mid in expected]
        calls.clear()
        assert validate(fc).ok
        generalized_saddle_sets(fc)
        assert calls == []
    fc = gallery_complexes["comb_torus"]
    checked = []
    check = orbits._require_invariant_closed

    def counted_check(fc, members):
        checked.append(members)
        return check(fc, members)

    monkeypatch.setattr(orbits, "_require_invariant_closed", counted_check)
    is_saddle_set(fc, {"q0"})
    is_isolated(fc, {"q0"})
    assert checked == [frozenset({"q0"})] * 2


def test_a_declared_single_saddle_is_admitted(tmp_path):
    # the degenerate case: a declared single saddle passes without the
    # saddle-set criterion
    fc = parse(emit(build("plus_saddle")) + "saddleset x members=s isolated=true\n")
    assert validate(fc).ok
    assert not is_saddle_set(fc, {"s"}).verdict
    assert generalized_saddle_sets(fc) == [frozenset({"s"})]
    plain = extended_orbit(fc, "a", Direction.BOTH)
    assert Expansion.generalized(fc).orbit("a", Direction.BOTH) == plain
    path = tmp_path / "plus.fc"
    path.write_text(emit(fc))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["classify", str(path)]) == 0
        assert cli.main(["orbit", str(path), "--start", "a", "--generalized"]) == 0


def test_admission_agrees_with_the_declarations(gallery_complexes):
    # a declared set is listed exactly when it is a single saddle, or a saddle
    # set isolated from minimal sets
    flows = list(gallery_complexes.values()) + [random_complex(seed) for seed in range(1000)]
    outcomes = set()
    for fc in flows:
        listed = generalized_saddle_sets(fc)
        for decl in fc.saddle_set_decls:
            m = decl.members
            single = len(m) == 1 and fc.is_saddle(next(iter(m)))
            admitted = single or (is_saddle_set(fc, m).verdict and is_isolated(fc, m))
            assert admitted == (m in listed), decl
            outcomes.add(admitted)
    assert outcomes == {True, False}


def test_saddle_set_requires_invariant_closed_input(gallery_complexes):
    fc = gallery_complexes["genus2_mixed"]
    with pytest.raises(PreconditionError):
        is_saddle_set(fc, {"c1"})  # closure escapes to the saddles
    with pytest.raises(PreconditionError):
        is_isolated(fc, {"c1"})


def test_every_admission_path_rejects_a_set_that_is_not_invariant_closed(gallery_complexes):
    # validate reports only that the declaration is not invariant; the
    # public predicates raise on such a set
    fc = parse(emit(gallery_complexes["genus2_mixed"]) + "saddleset q members=c1 isolated=true\n")
    assert [v.rule for v in validate(fc).violations] == ["saddleset-not-invariant"]
    message = r"^set is not invariant-closed: closure of c1 adds \['s1', 's2'\]$"
    for predicate in (is_saddle_set, is_isolated):
        with pytest.raises(InvalidSaddleSetError, match=message):
            predicate(fc, {"c1"})


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


@pytest.mark.parametrize("name, deepest", [("nested_saddles_disk", 39), ("double_center_sphere", 1)])
def test_oracle_agreement_on_the_deep_documents(name, deepest):
    """Every id and direction of the n=40 documents of the saddle_nest and
    double_center benchmarks: 200 and 485 ids, the nested disk's fixpoints
    up to 39 rounds deep."""
    fc = build(name, {"n": 40})
    engine = Expansion.plain(fc)
    depths = set()
    for xid in sorted(fc.all_ids):
        for direction in Direction:
            ext = engine.orbit(xid, direction)
            naive = naive_extension(fc, xid, direction)
            assert ext.members == naive.members, (xid, direction)
            assert ext.self_readded == naive.self_readded, (xid, direction)
            assert ext.added_round == naive.added_round, (xid, direction)
            assert ext.depth == naive.depth, (xid, direction)
            depths.add(ext.depth)
    assert max(depths) == deepest


def _reachable(succ, i):
    seen, stack = {i}, [i]
    while stack:
        for j in succ[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_strong_components_match_mutual_reachability():
    # seeded digraphs with self-loops, cycles, isolated nodes and repeated targets
    merged = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        succ = [[rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2, 3, 5)))] for _ in range(n)]
        comps = _strong_components(succ)
        reach = [_reachable(succ, i) for i in range(n)]
        naive = {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)}
        assert sorted(map(sorted, comps)) == sorted(map(sorted, naive)), seed
        # every edge between two components points to one listed earlier
        position = {i: k for k, comp in enumerate(comps) for i in comp}
        assert all(position[j] <= position[i] for i in range(n) for j in succ[i]), seed
        merged += any(len(comp) > 1 for comp in comps)
    assert 50 < merged < 200


def test_strong_components_of_a_long_chain_and_cycle_need_no_recursion():
    n = 10**5
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    assert _strong_components(chain) == [[i] for i in reversed(range(n))]
    [cycle] = _strong_components([[(i + 1) % n] for i in range(n)])
    assert sorted(cycle) == list(range(n))
