"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.
"""

import subprocess
import sys
import time

import pytest

from flowcomplex import (
    Classifier,
    Direction,
    FlowComplex,
    PointKind,
    SingularSet,
    SizeParams,
    TheoremStatus,
    build,
    classification_report,
    emit,
    extended_orbit,
    has_finitely_many_singularities,
    is_non_identical,
    parse,
    random_complex,
    validate,
    verify_theorems,
)
from flowcomplex.gallery import GALLERY
from flowcomplex.model import OrbitKind, SchemaKind, Shape
from flowcomplex.orbits import Expansion, orbit_set_closure

from naive_oracle import expand_once, naive_extension

SWEEP_SEEDS = range(1000)


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}: {description}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    return [(seed, random_complex(seed)) for seed in SWEEP_SEEDS]


@pytest.fixture(scope="module")
def classified(sweep):
    out = []
    for seed, fc in sweep:
        cls = Classifier(fc)
        out.append((seed, fc, cls))
    return out


@pytest.fixture(scope="module")
def gallery_classified(gallery_complexes):
    return {name: (fc, Classifier(fc)) for name, fc in gallery_complexes.items()}


def test_criterion_1_hierarchy_chain(classified, gallery_classified):
    t0 = time.monotonic()
    breaks = []
    everything = [(name, fc, cls) for name, (fc, cls) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc, cls) for seed, fc, cls in classified]
    for label, fc, cls in everything:
        r = cls.extended_r_closed().verdict
        p = cls.extended_pap().verdict
        e = cls.extended_recurrent().verdict
        n = cls.nonwandering().verdict
        if (r and not p) or (p and not e) or (e and not n):
            breaks.append((label, r, p, e, n))
    elapsed = time.monotonic() - t0
    _criterion(
        1,
        f"hierarchy chain holds on 9 fixtures + {len(classified)} random complexes in {elapsed:.1f}s",
        not breaks and elapsed < 60.0,
        str(breaks[:3]),
    )


def test_criterion_2_reference_classifications():
    failures = []

    def expect(fc: FlowComplex, label: str, **wanted: bool) -> None:
        report = classification_report(fc)
        for key, value in wanted.items():
            got = getattr(report, key).verdict
            if got != value:
                failures.append(f"{label}.{key}: wanted {value}, got {got}")

    expect(build("sphere_meridian", None), "sphere_meridian", non_wandering=True, extended_recurrent=False)
    g2 = build("genus2_mixed", None)
    expect(g2, "genus2_mixed", extended_recurrent=True, recurrent=False)
    junction = extended_orbit(g2, "c1", Direction.BOTH).members
    if orbit_set_closure(g2, junction) <= junction:
        failures.append("genus2_mixed: junction extension should not be closed")
    g2d = build("genus2_double_irrational", None)
    expect(g2d, "genus2_double_irrational", extended_recurrent=True, extended_pap=False)
    if len(g2d.saddle_ids) != 2:
        failures.append("genus2_double_irrational: expected exactly 2 saddles")
    for n in range(1, 6):
        expect(build("double_center_sphere", {"n": n}), f"double_center_sphere(n={n})", extended_r_closed=True)
    expect(build("halfdisk_sphere", None), "halfdisk_sphere", non_wandering=False, generalized_recurrent=True)
    for n in range(2, 7):
        expect(build("comb_torus", {"n": n}), f"comb_torus(n={n})", non_wandering=True, generalized_recurrent=False)
    _criterion(2, "reference classifications reproduce exactly", not failures, "; ".join(failures[:4]))


def test_criterion_3_regularity_equivalence(classified, gallery_classified):
    mismatches = []
    addendum = []
    everything = [(name, fc, cls) for name, (fc, cls) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc, cls) for seed, fc, cls in classified]
    for label, fc, cls in everything:
        if not cls.nonwandering().verdict:
            continue
        lhs = cls.regular().verdict
        rhs = cls.extended_recurrent().verdict and has_finitely_many_singularities(fc)
        if lhs != rhs:
            mismatches.append((label, lhs, rhs))
        if lhs:
            for res in verify_theorems(fc, ["regular-orbit-closure-dichotomy"]):
                if res.status is not TheoremStatus.HOLDS:
                    addendum.append((label, res.detail))
    _criterion(
        3,
        "regular <=> extended recurrent with finitely many singularities (plus closure addendum)",
        not mismatches and not addendum,
        f"mismatches={mismatches[:3]} addendum={addendum[:3]}",
    )


def test_criterion_4_closed_orbit_equivalence(classified, gallery_classified):
    disagreements = []
    everything = [(name, fc) for name, (fc, _) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc) for seed, fc, _ in classified]
    for n in range(1, 6):
        everything.append((f"double_center_sphere({n})", build("double_center_sphere", {"n": n})))
    for label, fc in everything:
        has_dense = any(o.kind is OrbitKind.LOCALLY_DENSE for o in fc.orbit_classes)
        if has_dense or not is_non_identical(fc):
            continue
        for res in verify_theorems(fc, ["closed-extended-orbit-equivalence"]):
            if res.status is TheoremStatus.VIOLATION:
                disagreements.append((label, res.detail))
    _criterion(
        4,
        "decomposition / recurrence-with-finite-blocks / closed-orbits agree without dense orbits",
        not disagreements,
        str(disagreements[:3]),
    )


def test_criterion_5_rclosed_pap_agreement(classified, gallery_classified):
    disagreements = []
    everything = [(name, fc, cls) for name, (fc, cls) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc, cls) for seed, fc, cls in classified]
    for label, fc, cls in everything:
        if fc.accumulation_schemas or not has_finitely_many_singularities(fc):
            continue
        r = cls.extended_r_closed().verdict
        p = cls.extended_pap().verdict
        if r != p:
            disagreements.append((label, r, p))
    _criterion(
        5,
        "extended R-closed equals extended p.a.p. whenever singularities are finite",
        not disagreements,
        str(disagreements[:3]),
    )


def test_criterion_6_genus_zero_five_way():
    checked = 0
    failures = []
    for seed in range(60):
        for profile in ("sphere-regular", "sphere"):
            fc = random_complex(seed, SizeParams(profile=profile))
            if any(o.kind is OrbitKind.LOCALLY_DENSE for o in fc.orbit_classes):
                continue
            if not (fc.surface.genus == 0 and has_finitely_many_singularities(fc) and not fc.accumulation_schemas):
                continue
            checked += 1
            for res in verify_theorems(fc, ["genus-zero-equivalence"]):
                if res.status is TheoremStatus.VIOLATION:
                    failures.append((profile, seed, res.detail))
    _criterion(
        6,
        f"five-way equivalence agrees on {checked} genus-zero finite-singularity flows (need >= 20)",
        checked >= 20 and not failures,
        str(failures[:3]),
    )


def _provenance(ext):
    return ext.members, ext.self_readded, ext.added_round, ext.depth


def test_criterion_7_oracle_equivalence(sweep):
    mismatches = []
    singleton_mismatches = []
    unstable_fixpoints = []
    for seed, fc in sweep:
        singletons = Expansion(fc, [frozenset({s}) for s in sorted(fc.saddle_ids)])
        for xid in sorted(fc.all_ids):
            for direction in (Direction.FORWARD, Direction.BACKWARD, Direction.BOTH):
                ext = extended_orbit(fc, xid, direction)
                if _provenance(ext) != naive_extension(fc, xid, direction):
                    mismatches.append((seed, xid, direction))
                gen = singletons.orbit(xid, direction)
                if _provenance(gen) != _provenance(ext):
                    singleton_mismatches.append((seed, xid, direction))
                if direction is not Direction.BOTH:
                    forward = direction is Direction.FORWARD
                    if expand_once(fc, ext.members, forward) != ext.members:
                        unstable_fixpoints.append((seed, xid, direction))
    _criterion(
        7,
        f"worklist extension matches the naive oracle (members, rounds, depth), re-expansion is identity, "
        f"and singleton-generalized extension coincides on {len(sweep)} complexes",
        not mismatches and not singleton_mismatches and not unstable_fixpoints,
        f"oracle={mismatches[:2]} singleton={singleton_mismatches[:2]} fixpoint={unstable_fixpoints[:2]}",
    )


def test_criterion_8_symmetry_and_non_transitivity(classified, gallery_classified):
    fc = gallery_classified["plus_saddle"][0]
    orbits = {xid: extended_orbit(fc, xid, Direction.BOTH).members for xid in fc.all_ids}
    non_transitive = [
        (x, y) for x, members in orbits.items() for y in members if orbits[y] != members
    ]
    symmetry_breaks = []
    everything = [(name, fc2, cls) for name, (fc2, cls) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc2, cls) for seed, fc2, cls in classified]
    for label, fc2, _ in everything:
        engine = Expansion.plain(fc2)
        members_of = {xid: engine.orbit(xid, Direction.BOTH).members for xid in fc2.all_ids}
        for xid, members in members_of.items():
            if xid not in members:
                symmetry_breaks.append((label, xid, "reflexivity"))
            for yid in members:
                if xid not in members_of[yid]:
                    symmetry_breaks.append((label, xid, yid))
    _criterion(
        8,
        "membership is reflexive and symmetric everywhere, and not transitive on the saddle fixture",
        bool(non_transitive) and not symmetry_breaks,
        f"non_transitive={bool(non_transitive)} breaks={symmetry_breaks[:3]}",
    )


def test_criterion_9_lemma_checks(classified, gallery_classified):
    lemma_names = [
        "extended-periodic-finiteness",
        "limit-cycles-force-wandering",
        "nonclosed-orbit-dichotomy",
        "partition-implies-extended-recurrence",
        "rclosed-implies-partition",
    ]
    violations = []
    everything = [(name, fc) for name, (fc, _) in gallery_classified.items()]
    everything += [(f"seed {seed}", fc) for seed, fc, _ in classified]
    for label, fc in everything:
        for res in verify_theorems(fc, lemma_names):
            if res.status is TheoremStatus.VIOLATION:
                violations.append((label, res.theorem, res.detail))
    holds_on_cycle_fixture = any(
        r.theorem == "limit-cycles-force-wandering" and r.status is TheoremStatus.HOLDS
        for r in verify_theorems(gallery_classified["sphere_limit_cycle"][0])
    )
    _criterion(
        9,
        "compactness, limit-cycle, dichotomy and implication checks hold across the sweep",
        not violations and holds_on_cycle_fixture,
        str(violations[:3]),
    )


def test_criterion_10_round_trip_and_determinism(sweep, gallery_classified, tmp_path):
    problems = []
    for name, (fc, _) in gallery_classified.items():
        if parse(emit(fc)) != fc:
            problems.append(f"round-trip {name}")
    for seed, fc in sweep:
        if parse(emit(fc)) != fc:
            problems.append(f"round-trip seed {seed}")
            break

    path = tmp_path / "det.fc"
    path.write_text(emit(build("genus2_mixed", None)))
    outputs = set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "flowcomplex.cli", "classify", str(path), "--json"],
            capture_output=True,
        )
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        problems.append("classify output varies across runs")

    mutated_failures = 0
    mutated_total = 0
    seed = 0
    while mutated_total < 100:
        fc = random_complex(seed, SizeParams(profile="sphere-regular"))
        seed += 1
        centers = [s for s in fc.singular_sets if s.kind is PointKind.CENTER]
        if not centers or not validate(fc).ok:
            continue
        mutated_total += 1
        mutated_sing = tuple(
            SingularSet(s.id, s.shape, PointKind.SADDLE) if s.id == centers[0].id else s
            for s in fc.singular_sets
        )
        mutated = FlowComplex(
            fc.surface, mutated_sing, fc.orbit_classes, fc.families, fc.accumulation_schemas, fc.saddle_set_decls
        )
        report = validate(mutated)
        if not report.ok and "poincare-hopf" in report.rules():
            mutated_failures += 1
    if mutated_failures != mutated_total:
        problems.append(f"mutations rejected {mutated_failures}/{mutated_total}")

    _criterion(
        10,
        "round-trips, repeated-run determinism, and 100/100 index-mutation rejections",
        not problems,
        "; ".join(problems[:3]),
    )
