"""Verification harness for the structural facts the classifiers must satisfy.

Each check evaluates its hypothesis on the complex; when the hypothesis
fails the check is inapplicable (never counted as holding), and when it
holds the conclusion is re-derived from the classifier operations.  Every
fact about extended orbits comes from one ``Classifier``: checks that test
the two-sided member set alone scan its ``leads``, one id per distinct
extended orbit.  The harness runs only on a complex that passes
``validate``; a violation entry is a counterexample report and should
never occur on a sound complex.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Optional

from .model import (
    DENSE_KINDS,
    FlowComplex,
    POINT,
    PreconditionError,
    SADDLE_CHAIN,
    SINGULARITY_SEQUENCE,
    require_complex,
    singularity_accumulation,
    value_class,
)
from .classify import Classifier, DichotomyCase


class TheoremStatus(str, Enum):
    HOLDS = "Holds"
    INAPPLICABLE = "Inapplicable"
    VIOLATION = "VIOLATION"


@value_class
class TheoremResult:
    """The status of one theorem check on one complex, with a detail."""

    theorem: str
    status: TheoremStatus
    detail: str = ""


def has_finitely_many_singularities(fc: FlowComplex) -> bool:
    """No fixed continua and no declared accumulation of singular structure.

    An arc or circle of fixed points is uncountably many singularities; a
    saddle chain or singularity sequence encodes infinitely many.
    """
    require_complex(fc, "has_finitely_many_singularities")
    return all(s.shape is POINT for s in fc.singular_sets) and singularity_accumulation(fc) is None


def is_non_identical(fc: FlowComplex) -> bool:
    """The flow moves something: at least one orbit class or family."""
    require_complex(fc, "is_non_identical")
    return bool(fc.orbit_classes) or bool(fc.families)


def _block_with_infinite_singularities(cls: Classifier) -> Optional[str]:
    """An extended-orbit closure swallowing a whole saddle chain holds
    infinitely many saddles."""
    for schema in cls.fc.saddle_chains:
        for xid, block in cls.blocks().items():
            if block.issuperset(schema.samples):
                return xid
    return None


def _dense_closure_swallows_singularity_sequence(cls: Classifier) -> Optional[str]:
    for schema in cls.fc.accumulation_schemas:
        if schema.kind is not SINGULARITY_SEQUENCE:
            continue
        for o in cls.fc.orbit_classes:
            if o.kind in DENSE_KINDS and schema.target <= o.closure_decl:
                return o.id
    return None


def _open_extension_missing_dense_side(cls: Classifier) -> Optional[str]:
    """The first id whose extended orbit is not closed and that is not locally
    dense itself, with a one-sided payload holding no locally dense class,
    if any.  The one-sided payloads differ between ids of one extended orbit."""
    dense = cls.dense_ids
    for xid in cls.open_ids:
        if xid not in dense and any(cls.payload(xid, forward).isdisjoint(dense) for forward in (True, False)):
            return xid
    return None


# -- individual checks --------------------------------------------------------


def check_extended_periodic_members(cls: Classifier) -> TheoremResult:
    """A compact extended orbit consists of finitely many proper orbits and
    saddles, so its members never hold a whole (infinite) saddle chain."""
    name = "extended-periodic-finiteness"
    chains = cls.fc.saddle_chains
    compact = False
    for xid in cls.iter_periodic_leads():
        compact = True
        if not chains:  # only a saddle chain can break it: one compact lead settles it
            break
        members = cls.members(xid)
        for schema in chains:
            if members.issuperset(schema.samples):
                return TheoremResult(name, TheoremStatus.VIOLATION, f"{xid}: members hold saddle chain {schema.id}")
    if not compact:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "no compact extended orbits")
    return TheoremResult(name, TheoremStatus.HOLDS)


def check_limit_cycles_force_wandering(cls: Classifier) -> TheoremResult:
    """An extended limit cycle forces a wandering proper orbit equal to its own extension."""
    name = "limit-cycles-force-wandering"
    if not cls.limit_cycles():
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "no extended limit cycles")
    if cls.nonwandering().verdict:
        return TheoremResult(name, TheoremStatus.VIOLATION, "limit cycles present but no wandering point")
    for oid in cls.wandering:
        if len(cls.members(oid)) == 1:
            return TheoremResult(name, TheoremStatus.HOLDS, f"wandering witness {oid}")
    return TheoremResult(name, TheoremStatus.VIOLATION, "no wandering proper orbit equal to its own extension")


def check_recurrence_implies_nonwandering(cls: Classifier) -> TheoremResult:
    name = "extended-recurrence-implies-nonwandering"
    if not cls.extended_recurrent().verdict:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "not extended recurrent")
    if cls.nonwandering().verdict:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, f"wandering witness {cls.nonwandering().witness.ids}")


def check_dichotomy(cls: Classifier) -> TheoremResult:
    """Non-closed extended orbits either trail into a non-saddle singularity
    or meet the closure of a locally dense orbit."""
    name = "nonclosed-orbit-dichotomy"
    if not cls.extended_recurrent().verdict:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "not extended recurrent")
    if not cls.open_leads:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "every extended orbit is closed")
    for xid in sorted(cls.open_leads):
        if cls.dichotomy(xid) is DichotomyCase.VIOLATION:
            return TheoremResult(name, TheoremStatus.VIOLATION, f"neither disjunct holds at {xid}")
    return TheoremResult(name, TheoremStatus.HOLDS)


def check_partition_implies_recurrence(cls: Classifier) -> TheoremResult:
    """A decomposition into extended-orbit closures forces extended recurrence
    with finitely many singular pieces in every block."""
    name = "partition-implies-extended-recurrence"
    if not cls.extended_pap().verdict:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "not a decomposition")
    if not cls.extended_recurrent().verdict:
        return TheoremResult(name, TheoremStatus.VIOLATION, f"not extended recurrent: {cls.extended_recurrent().witness.ids}")
    bad = _block_with_infinite_singularities(cls)
    if bad is not None:
        return TheoremResult(name, TheoremStatus.VIOLATION, f"block of {bad} swallows a saddle chain")
    bad = _dense_closure_swallows_singularity_sequence(cls)
    if bad is not None:
        return TheoremResult(name, TheoremStatus.VIOLATION, f"dense closure of {bad} swallows a singularity sequence")
    return TheoremResult(name, TheoremStatus.HOLDS)


def check_rclosed_implies_partition(cls: Classifier) -> TheoremResult:
    name = "rclosed-implies-partition"
    if not cls.extended_r_closed().verdict:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "not extended R-closed")
    if cls.extended_pap().verdict:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, "R-closed without a decomposition")


def check_rclosed_singularity_structure(cls: Classifier) -> TheoremResult:
    """Under extended R-closedness every singularity is a saddle or an
    extended center, and dense closures trap only finitely many."""
    name = "rclosed-singularity-structure"
    fc = cls.fc
    if not (cls.extended_r_closed().verdict and is_non_identical(fc)):
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "hypothesis fails")
    for o in fc.orbit_classes:
        if o.kind in DENSE_KINDS:
            for schema in fc.accumulation_schemas:
                if (schema.kind is SADDLE_CHAIN or schema.kind is SINGULARITY_SEQUENCE) and set(schema.samples) <= o.closure_decl:
                    return TheoremResult(name, TheoremStatus.VIOLATION, f"dense closure of {o.id} holds infinitely many singularities")
    for s in fc.singular_sets:
        if s.shape is not POINT:
            return TheoremResult(name, TheoremStatus.VIOLATION, f"{s.id} is a fixed continuum")
        if s.is_saddle or cls.extended_center(s.id):
            continue
        return TheoremResult(name, TheoremStatus.VIOLATION, f"{s.id} is neither a saddle nor an extended center")
    return TheoremResult(name, TheoremStatus.HOLDS)


def check_regularity_equivalence(cls: Classifier) -> TheoremResult:
    """Under non-wandering: regular iff extended recurrent with finitely many singularities."""
    name = "regularity-equivalence"
    fc = cls.fc
    if not cls.nonwandering().verdict:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "not non-wandering")
    lhs = cls.regular().verdict
    rhs = cls.extended_recurrent().verdict and has_finitely_many_singularities(fc)
    if lhs == rhs:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, f"regular={lhs} but recurrent-with-finite-sing={rhs}")


def check_regular_orbit_closure_dichotomy(cls: Classifier) -> TheoremResult:
    """For regular non-wandering flows each extended orbit is closed or both
    of its one-sided extensions reach locally dense orbits."""
    name = "regular-orbit-closure-dichotomy"
    if not (cls.nonwandering().verdict and cls.regular().verdict):
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "hypothesis fails")
    bad = _open_extension_missing_dense_side(cls)
    if bad is not None:
        return TheoremResult(name, TheoremStatus.VIOLATION, f"{bad}: open extension missing a dense side")
    return TheoremResult(name, TheoremStatus.HOLDS)


def check_closed_extended_orbit_equivalence(cls: Classifier) -> TheoremResult:
    """Without locally dense orbits: decomposition, recurrence with finite
    blocks, and all extended orbits closed are one property."""
    name = "closed-extended-orbit-equivalence"
    fc = cls.fc
    if cls.dense_ids or not is_non_identical(fc):
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "hypothesis fails")
    p1 = cls.extended_pap().verdict
    p2 = (
        cls.extended_recurrent().verdict
        and _block_with_infinite_singularities(cls) is None
    )
    p3 = not cls.open_leads
    if p1 == p2 == p3:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, f"decomposition={p1}, recurrence={p2}, closed-orbits={p3}")


def check_finite_singularity_rclosed_equivalence(cls: Classifier) -> TheoremResult:
    """With finitely many singularities and no accumulation structure,
    R-closedness and the decomposition property coincide."""
    name = "finite-singularity-rclosed-equivalence"
    fc = cls.fc
    if fc.accumulation_schemas or not has_finitely_many_singularities(fc):
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "accumulating structure present")
    r = cls.extended_r_closed().verdict
    p = cls.extended_pap().verdict
    if r == p:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, f"r-closed={r} but decomposition={p}")


def check_genus_zero_equivalence(cls: Classifier) -> TheoremResult:
    """On genus-zero surfaces with finitely many singularities all five
    properties agree: R-closed, decomposition, extended recurrence, regular
    non-wandering, and closed extended orbits."""
    name = "genus-zero-equivalence"
    fc = cls.fc
    applicable = (
        fc.surface.genus == 0
        and is_non_identical(fc)
        and has_finitely_many_singularities(fc)
        and not fc.accumulation_schemas
        and not cls.dense_ids
    )
    if not applicable:
        return TheoremResult(name, TheoremStatus.INAPPLICABLE, "hypothesis fails")
    values = (
        cls.extended_r_closed().verdict,
        cls.extended_pap().verdict,
        cls.extended_recurrent().verdict,
        cls.regular().verdict and cls.nonwandering().verdict,
        not cls.open_leads,
    )
    if len(set(values)) == 1:
        return TheoremResult(name, TheoremStatus.HOLDS)
    return TheoremResult(name, TheoremStatus.VIOLATION, f"predicates disagree: {values}")


CheckFn = Callable[[Classifier], TheoremResult]

THEOREM_CHECKS: tuple[tuple[str, CheckFn], ...] = (
    ("closed-extended-orbit-equivalence", check_closed_extended_orbit_equivalence),
    ("extended-periodic-finiteness", check_extended_periodic_members),
    ("extended-recurrence-implies-nonwandering", check_recurrence_implies_nonwandering),
    ("finite-singularity-rclosed-equivalence", check_finite_singularity_rclosed_equivalence),
    ("genus-zero-equivalence", check_genus_zero_equivalence),
    ("limit-cycles-force-wandering", check_limit_cycles_force_wandering),
    ("nonclosed-orbit-dichotomy", check_dichotomy),
    ("partition-implies-extended-recurrence", check_partition_implies_recurrence),
    ("rclosed-implies-partition", check_rclosed_implies_partition),
    ("rclosed-singularity-structure", check_rclosed_singularity_structure),
    ("regular-orbit-closure-dichotomy", check_regular_orbit_closure_dichotomy),
    ("regularity-equivalence", check_regularity_equivalence),
)

THEOREM_NAMES: tuple[str, ...] = tuple(name for name, _ in THEOREM_CHECKS)


def verify_theorems(fc: FlowComplex, names: Optional[Iterable] = None) -> list[TheoremResult]:
    """Run the harness; results are sorted by theorem name."""
    if isinstance(names, str):
        raise PreconditionError(f"theorem names must be a collection of names, not the string {names!r}")
    if names is not None and not isinstance(names, Iterable):
        raise PreconditionError(f"theorem names must be a collection of names, not {names!r}")
    names = THEOREM_NAMES if names is None else tuple(names)
    bad = [name for name in names if not isinstance(name, str)]
    if bad:
        raise PreconditionError(f"theorem names must be strings, not {bad[0]!r}")
    wanted = set(names)
    if not wanted:
        raise PreconditionError("no theorem names given")
    unknown = wanted - set(THEOREM_NAMES)
    if unknown:
        raise PreconditionError(f"unknown theorem names: {sorted(unknown)}")
    cls = Classifier(fc)
    return [check(cls) for name, check in THEOREM_CHECKS if name in wanted]
