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
#
# A result whose detail is fixed text is built once, here, and shared:
# ``TheoremResult`` is immutable.  Results that name ids are built per call.

HOLDS, INAPPLICABLE, VIOLATION = TheoremStatus.HOLDS, TheoremStatus.INAPPLICABLE, TheoremStatus.VIOLATION

_PERIODIC = "extended-periodic-finiteness"
_PERIODIC_HOLDS = TheoremResult(_PERIODIC, HOLDS)
_PERIODIC_NONE = TheoremResult(_PERIODIC, INAPPLICABLE, "no compact extended orbits")


def check_extended_periodic_members(cls: Classifier) -> TheoremResult:
    """A compact extended orbit consists of finitely many proper orbits and
    saddles, so its members never hold a whole (infinite) saddle chain."""
    chains = cls.fc.saddle_chains
    compact = False
    for xid in cls.iter_periodic_leads():
        compact = True
        if not chains:  # only a saddle chain can break it: one compact lead settles it
            break
        members = cls.members(xid)
        for schema in chains:
            if members.issuperset(schema.samples):
                return TheoremResult(_PERIODIC, VIOLATION, f"{xid}: members hold saddle chain {schema.id}")
    return _PERIODIC_HOLDS if compact else _PERIODIC_NONE


_CYCLES = "limit-cycles-force-wandering"
_CYCLES_NONE = TheoremResult(_CYCLES, INAPPLICABLE, "no extended limit cycles")
_CYCLES_NO_WANDERING = TheoremResult(_CYCLES, VIOLATION, "limit cycles present but no wandering point")
_CYCLES_NO_WITNESS = TheoremResult(_CYCLES, VIOLATION, "no wandering proper orbit equal to its own extension")


def check_limit_cycles_force_wandering(cls: Classifier) -> TheoremResult:
    """An extended limit cycle forces a wandering proper orbit equal to its own extension."""
    if not cls.limit_cycles():
        return _CYCLES_NONE
    if cls.nonwandering().verdict:
        return _CYCLES_NO_WANDERING
    for oid in cls.wandering:
        if len(cls.members(oid)) == 1:
            return TheoremResult(_CYCLES, HOLDS, f"wandering witness {oid}")
    return _CYCLES_NO_WITNESS


_RECURRENCE = "extended-recurrence-implies-nonwandering"
_RECURRENCE_HOLDS = TheoremResult(_RECURRENCE, HOLDS)
_RECURRENCE_NONE = TheoremResult(_RECURRENCE, INAPPLICABLE, "not extended recurrent")


def check_recurrence_implies_nonwandering(cls: Classifier) -> TheoremResult:
    if not cls.extended_recurrent().verdict:
        return _RECURRENCE_NONE
    if cls.nonwandering().verdict:
        return _RECURRENCE_HOLDS
    return TheoremResult(_RECURRENCE, VIOLATION, f"wandering witness {cls.nonwandering().witness.ids}")


_DICHOTOMY = "nonclosed-orbit-dichotomy"
_DICHOTOMY_HOLDS = TheoremResult(_DICHOTOMY, HOLDS)
_DICHOTOMY_NONE = TheoremResult(_DICHOTOMY, INAPPLICABLE, "not extended recurrent")
_DICHOTOMY_CLOSED = TheoremResult(_DICHOTOMY, INAPPLICABLE, "every extended orbit is closed")


def check_dichotomy(cls: Classifier) -> TheoremResult:
    """Non-closed extended orbits either trail into a non-saddle singularity
    or meet the closure of a locally dense orbit."""
    if not cls.extended_recurrent().verdict:
        return _DICHOTOMY_NONE
    if not cls.open_leads:
        return _DICHOTOMY_CLOSED
    for xid in sorted(cls.open_leads):
        if cls.dichotomy(xid) is DichotomyCase.VIOLATION:
            return TheoremResult(_DICHOTOMY, VIOLATION, f"neither disjunct holds at {xid}")
    return _DICHOTOMY_HOLDS


_PARTITION = "partition-implies-extended-recurrence"
_PARTITION_HOLDS = TheoremResult(_PARTITION, HOLDS)
_PARTITION_NONE = TheoremResult(_PARTITION, INAPPLICABLE, "not a decomposition")


def check_partition_implies_recurrence(cls: Classifier) -> TheoremResult:
    """A decomposition into extended-orbit closures forces extended recurrence
    with finitely many singular pieces in every block."""
    if not cls.extended_pap().verdict:
        return _PARTITION_NONE
    if not cls.extended_recurrent().verdict:
        return TheoremResult(_PARTITION, VIOLATION, f"not extended recurrent: {cls.extended_recurrent().witness.ids}")
    bad = _block_with_infinite_singularities(cls)
    if bad is not None:
        return TheoremResult(_PARTITION, VIOLATION, f"block of {bad} swallows a saddle chain")
    bad = _dense_closure_swallows_singularity_sequence(cls)
    if bad is not None:
        return TheoremResult(_PARTITION, VIOLATION, f"dense closure of {bad} swallows a singularity sequence")
    return _PARTITION_HOLDS


_RCLOSED = "rclosed-implies-partition"
_RCLOSED_HOLDS = TheoremResult(_RCLOSED, HOLDS)
_RCLOSED_NONE = TheoremResult(_RCLOSED, INAPPLICABLE, "not extended R-closed")
_RCLOSED_FAILS = TheoremResult(_RCLOSED, VIOLATION, "R-closed without a decomposition")


def check_rclosed_implies_partition(cls: Classifier) -> TheoremResult:
    if not cls.extended_r_closed().verdict:
        return _RCLOSED_NONE
    return _RCLOSED_HOLDS if cls.extended_pap().verdict else _RCLOSED_FAILS


_STRUCTURE = "rclosed-singularity-structure"
_STRUCTURE_HOLDS = TheoremResult(_STRUCTURE, HOLDS)
_STRUCTURE_NONE = TheoremResult(_STRUCTURE, INAPPLICABLE, "hypothesis fails")


def check_rclosed_singularity_structure(cls: Classifier) -> TheoremResult:
    """Under extended R-closedness every singularity is a saddle or an
    extended center, and dense closures trap only finitely many."""
    fc = cls.fc
    if not (cls.extended_r_closed().verdict and is_non_identical(fc)):
        return _STRUCTURE_NONE
    for o in fc.orbit_classes:
        if o.kind in DENSE_KINDS:
            for schema in fc.accumulation_schemas:
                if (schema.kind is SADDLE_CHAIN or schema.kind is SINGULARITY_SEQUENCE) and set(schema.samples) <= o.closure_decl:
                    return TheoremResult(_STRUCTURE, VIOLATION, f"dense closure of {o.id} holds infinitely many singularities")
    for s in fc.singular_sets:
        if s.shape is not POINT:
            return TheoremResult(_STRUCTURE, VIOLATION, f"{s.id} is a fixed continuum")
        if s.is_saddle or cls.extended_center(s.id):
            continue
        return TheoremResult(_STRUCTURE, VIOLATION, f"{s.id} is neither a saddle nor an extended center")
    return _STRUCTURE_HOLDS


_REGULARITY = "regularity-equivalence"
_REGULARITY_HOLDS = TheoremResult(_REGULARITY, HOLDS)
_REGULARITY_NONE = TheoremResult(_REGULARITY, INAPPLICABLE, "not non-wandering")


def check_regularity_equivalence(cls: Classifier) -> TheoremResult:
    """Under non-wandering: regular iff extended recurrent with finitely many singularities."""
    if not cls.nonwandering().verdict:
        return _REGULARITY_NONE
    lhs = cls.regular().verdict
    rhs = cls.extended_recurrent().verdict and has_finitely_many_singularities(cls.fc)
    if lhs == rhs:
        return _REGULARITY_HOLDS
    return TheoremResult(_REGULARITY, VIOLATION, f"regular={lhs} but recurrent-with-finite-sing={rhs}")


_CLOSURES = "regular-orbit-closure-dichotomy"
_CLOSURES_HOLDS = TheoremResult(_CLOSURES, HOLDS)
_CLOSURES_NONE = TheoremResult(_CLOSURES, INAPPLICABLE, "hypothesis fails")


def check_regular_orbit_closure_dichotomy(cls: Classifier) -> TheoremResult:
    """For regular non-wandering flows each extended orbit is closed or both
    of its one-sided extensions reach locally dense orbits."""
    if not (cls.nonwandering().verdict and cls.regular().verdict):
        return _CLOSURES_NONE
    bad = _open_extension_missing_dense_side(cls)
    if bad is not None:
        return TheoremResult(_CLOSURES, VIOLATION, f"{bad}: open extension missing a dense side")
    return _CLOSURES_HOLDS


_CLOSED = "closed-extended-orbit-equivalence"
_CLOSED_HOLDS = TheoremResult(_CLOSED, HOLDS)
_CLOSED_NONE = TheoremResult(_CLOSED, INAPPLICABLE, "hypothesis fails")


def check_closed_extended_orbit_equivalence(cls: Classifier) -> TheoremResult:
    """Without locally dense orbits: decomposition, recurrence with finite
    blocks, and all extended orbits closed are one property."""
    if cls.dense_ids or not is_non_identical(cls.fc):
        return _CLOSED_NONE
    p1 = cls.extended_pap().verdict
    p2 = (
        cls.extended_recurrent().verdict
        and _block_with_infinite_singularities(cls) is None
    )
    p3 = not cls.open_leads
    if p1 == p2 == p3:
        return _CLOSED_HOLDS
    return TheoremResult(_CLOSED, VIOLATION, f"decomposition={p1}, recurrence={p2}, closed-orbits={p3}")


_FINITE = "finite-singularity-rclosed-equivalence"
_FINITE_HOLDS = TheoremResult(_FINITE, HOLDS)
_FINITE_NONE = TheoremResult(_FINITE, INAPPLICABLE, "accumulating structure present")


def check_finite_singularity_rclosed_equivalence(cls: Classifier) -> TheoremResult:
    """With finitely many singularities and no accumulation structure,
    R-closedness and the decomposition property coincide."""
    fc = cls.fc
    if fc.accumulation_schemas or not has_finitely_many_singularities(fc):
        return _FINITE_NONE
    r = cls.extended_r_closed().verdict
    p = cls.extended_pap().verdict
    if r == p:
        return _FINITE_HOLDS
    return TheoremResult(_FINITE, VIOLATION, f"r-closed={r} but decomposition={p}")


_GENUS_ZERO = "genus-zero-equivalence"
_GENUS_ZERO_HOLDS = TheoremResult(_GENUS_ZERO, HOLDS)
_GENUS_ZERO_NONE = TheoremResult(_GENUS_ZERO, INAPPLICABLE, "hypothesis fails")


def check_genus_zero_equivalence(cls: Classifier) -> TheoremResult:
    """On genus-zero surfaces with finitely many singularities all five
    properties agree: R-closed, decomposition, extended recurrence, regular
    non-wandering, and closed extended orbits."""
    fc = cls.fc
    applicable = (
        fc.surface.genus == 0
        and is_non_identical(fc)
        and has_finitely_many_singularities(fc)
        and not fc.accumulation_schemas
        and not cls.dense_ids
    )
    if not applicable:
        return _GENUS_ZERO_NONE
    values = (
        cls.extended_r_closed().verdict,
        cls.extended_pap().verdict,
        cls.extended_recurrent().verdict,
        cls.regular().verdict and cls.nonwandering().verdict,
        not cls.open_leads,
    )
    if len(set(values)) == 1:
        return _GENUS_ZERO_HOLDS
    return TheoremResult(_GENUS_ZERO, VIOLATION, f"predicates disagree: {values}")


CheckFn = Callable[[Classifier], TheoremResult]

THEOREM_CHECKS: tuple[tuple[str, CheckFn], ...] = (
    (_CLOSED, check_closed_extended_orbit_equivalence),
    (_PERIODIC, check_extended_periodic_members),
    (_RECURRENCE, check_recurrence_implies_nonwandering),
    (_FINITE, check_finite_singularity_rclosed_equivalence),
    (_GENUS_ZERO, check_genus_zero_equivalence),
    (_CYCLES, check_limit_cycles_force_wandering),
    (_DICHOTOMY, check_dichotomy),
    (_PARTITION, check_partition_implies_recurrence),
    (_RCLOSED, check_rclosed_implies_partition),
    (_STRUCTURE, check_rclosed_singularity_structure),
    (_CLOSURES, check_regular_orbit_closure_dichotomy),
    (_REGULARITY, check_regularity_equivalence),
)

THEOREM_NAMES: tuple[str, ...] = tuple(name for name, _ in THEOREM_CHECKS)


def verify_theorems(fc: FlowComplex, names: Optional[Iterable] = None) -> list[TheoremResult]:
    """Run the harness; results are sorted by theorem name."""
    if names is None:
        cls = Classifier(fc)
        return [check(cls) for _, check in THEOREM_CHECKS]
    if isinstance(names, str):
        raise PreconditionError(f"theorem names must be a collection of names, not the string {names!r}")
    if not isinstance(names, Iterable):
        raise PreconditionError(f"theorem names must be a collection of names, not {names!r}")
    names = tuple(names)
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
