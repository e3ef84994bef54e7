"""Symbolic presentation of a continuous flow on a compact surface.

A flow complex describes a flow by finitely many named pieces: singular
sets (fixed points or continua of fixed points), orbit classes (one orbit,
or one representative of an uncountable bundle sharing a structural role),
one-parameter families of closed invariant sets, and accumulation schemas
that stand in for infinite repeating structure.  All downstream analysis
(extended orbits, recurrence classification, theorem checks) is a pure
function of this data.

Orbit classes are the atomic unit; individual points on an orbit are not
modelled.  Uncountable bundles (periodic annuli, the leaves of a dense
foliation) are carried either by a ``Family`` or by a few representative
``OrbitClass`` entries sharing a declared closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional


class FlowComplexError(Exception):
    """Base class for errors raised by this package."""


class UnknownIdError(FlowComplexError, KeyError):
    """An identifier does not resolve to any declared piece."""

    def __str__(self) -> str:  # not KeyError's bare quoted key
        return f"unknown id {self.args[0]!r}"


class PreconditionError(FlowComplexError, ValueError):
    """An operation was called outside its stated precondition."""


class Shape(str, Enum):
    POINT = "point"
    ARC = "arc"
    CIRCLE = "circle"


class PointKind(str, Enum):
    CENTER = "center"
    SADDLE = "saddle"
    SINK = "sink"
    SOURCE = "source"
    OTHER = "other"


# Point kinds admissible for a non-degenerate singularity.
REGULAR_KINDS = frozenset({PointKind.CENTER, PointKind.SADDLE, PointKind.SINK, PointKind.SOURCE})


class OrbitKind(str, Enum):
    PERIODIC = "periodic"
    PROPER = "proper"          # proper but not closed: both ends limit somewhere
    LOCALLY_DENSE = "dense"
    EXCEPTIONAL = "exceptional"


class FamilyKind(str, Enum):
    PERIODIC_ANNULUS = "annulus"
    CLOSED_EXTENDED_REGION = "region"


class SchemaKind(str, Enum):
    SADDLE_CHAIN = "saddle_chain"
    SINGULARITY_SEQUENCE = "sing_seq"
    FAMILY_SEQUENCE = "family_seq"


class RefKind(str, Enum):
    SING = "sing"
    ORBIT = "orbit"
    SET = "set"


# The members that loops running once per record or id compare against.  On
# CPython 3.11 ``EnumType`` defines ``__getattr__``, so a read such as
# ``OrbitKind.PROPER`` costs about ten times a module global (0.14 against
# 0.013 us on 3.11.7, a 2-vCPU Xeon VM); 3.12 dropped that ``__getattr__``.
POINT = Shape.POINT
SADDLE = PointKind.SADDLE
PERIODIC, PROPER = OrbitKind.PERIODIC, OrbitKind.PROPER
LOCALLY_DENSE, EXCEPTIONAL = OrbitKind.LOCALLY_DENSE, OrbitKind.EXCEPTIONAL
DENSE_KINDS = (LOCALLY_DENSE, EXCEPTIONAL)
PERIODIC_ANNULUS = FamilyKind.PERIODIC_ANNULUS
SADDLE_CHAIN, SINGULARITY_SEQUENCE = SchemaKind.SADDLE_CHAIN, SchemaKind.SINGULARITY_SEQUENCE
FAMILY_SEQUENCE = SchemaKind.FAMILY_SEQUENCE
SING_REF, ORBIT_REF, SET_REF = RefKind.SING, RefKind.ORBIT, RefKind.SET


@dataclass(frozen=True)
class SurfaceInfo:
    """Topological type of the underlying compact connected surface."""

    genus: int
    orientable: bool
    boundary_components: int

    def __post_init__(self) -> None:
        for key in ("genus", "boundary_components"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PreconditionError(f"{key} must be an int, not {value!r}")
            if value < 0:
                raise PreconditionError(f"{key} must be non-negative")
        if not isinstance(self.orientable, bool):
            raise PreconditionError(f"orientable must be a bool, not {self.orientable!r}")

    @property
    def closed(self) -> bool:
        return self.boundary_components == 0

    @property
    def euler_characteristic(self) -> int:
        base = 2 - 2 * self.genus if self.orientable else 2 - self.genus
        return base - self.boundary_components


@dataclass(frozen=True)
class LimitRef:
    """A declared alpha- or omega-limit: a singular set, an orbit, or a set of ids."""

    kind: RefKind
    ids: tuple[str, ...]

    @classmethod
    def sing(cls, sid: str) -> "LimitRef":
        return cls(RefKind.SING, (sid,))

    @classmethod
    def orbit(cls, oid: str) -> "LimitRef":
        return cls(RefKind.ORBIT, (oid,))

    @classmethod
    def of_set(cls, ids: Iterable[str]) -> "LimitRef":
        return cls(RefKind.SET, tuple(sorted(set(ids))))

    def resolved(self) -> frozenset[str]:
        return frozenset(self.ids)


@dataclass(frozen=True)
class SingularSet:
    """A fixed point (with a local type) or a continuum of fixed points."""

    id: str
    shape: Shape
    kind: Optional[PointKind] = None

    @property
    def is_saddle(self) -> bool:
        return self.shape is POINT and self.kind is SADDLE


@dataclass(frozen=True)
class OrbitClass:
    """One orbit, or one representative of a bundle of orbits with the same role.

    Proper non-closed classes carry both end limits.  Locally dense and
    exceptional classes declare their closure as an id set; they may
    additionally carry a point limit on one end (a leaf emanating from or
    terminating at a saddle is dense on one side only).
    """

    id: str
    kind: OrbitKind
    alpha: Optional[LimitRef] = None
    omega: Optional[LimitRef] = None
    closure_decl: Optional[frozenset[str]] = None


@dataclass(frozen=True)
class Family:
    """One-parameter region of mutually disjoint closed invariant sets.

    A shrink flag declares that member diameters tend to zero at that
    boundary; the boundary must then be a single point singularity.
    """

    id: str
    kind: FamilyKind
    boundary0: frozenset[str]
    boundary1: frozenset[str]
    shrinks0: bool = False
    shrinks1: bool = False

    def boundaries(self) -> tuple[tuple[frozenset[str], bool], ...]:
        return ((self.boundary0, self.shrinks0), (self.boundary1, self.shrinks1))


@dataclass(frozen=True)
class AccumulationSchema:
    """Finite stand-in for infinite repeating structure.

    Declares that the infinite continuation of the sample pattern converges
    (in the Hausdorff sense) onto the target set.  A saddle chain is
    dynamically linked (consecutive instances share saddles, so extension
    sweeps down the whole chain); singularity and family sequences are
    spatial accumulations only.
    """

    id: str
    kind: SchemaKind
    samples: tuple[str, ...]
    target: frozenset[str]


@dataclass(frozen=True)
class SaddleSetDecl:
    """A declared compact invariant set, with its claimed isolation status."""

    id: str
    members: frozenset[str]
    isolated: bool


@dataclass(frozen=True)
class Violation:
    id: str
    rule: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> frozenset[str]:
        return frozenset(v.rule for v in self.violations)


@dataclass(frozen=True)
class FlowComplex:
    """Immutable symbolic flow presentation; all operations are pure functions of it."""

    surface: SurfaceInfo
    singular_sets: tuple[SingularSet, ...] = ()
    orbit_classes: tuple[OrbitClass, ...] = ()
    families: tuple[Family, ...] = ()
    accumulation_schemas: tuple[AccumulationSchema, ...] = ()
    saddle_set_decls: tuple[SaddleSetDecl, ...] = ()

    @classmethod
    def build(
        cls,
        surface: SurfaceInfo,
        singular_sets: Iterable[SingularSet] = (),
        orbit_classes: Iterable[OrbitClass] = (),
        families: Iterable[Family] = (),
        accumulation_schemas: Iterable[AccumulationSchema] = (),
        saddle_set_decls: Iterable[SaddleSetDecl] = (),
    ) -> "FlowComplex":
        """Construct with records sorted by id; an argument of the wrong type,
        duplicate ids and required fields left ``None`` are rejected."""
        if not isinstance(surface, SurfaceInfo):
            raise PreconditionError(f"surface must be a SurfaceInfo, not {surface!r}")
        seen: set[str] = set()
        groups = []
        for argument, records, record_type, required in (
            ("singular_sets", singular_sets, SingularSet, ("shape",)),
            ("orbit_classes", orbit_classes, OrbitClass, ("kind",)),
            ("families", families, Family, ("kind", "boundary0", "boundary1")),
            ("accumulation_schemas", accumulation_schemas, AccumulationSchema, ("kind", "samples", "target")),
            ("saddle_set_decls", saddle_set_decls, SaddleSetDecl, ("members", "isolated")),
        ):
            if not isinstance(records, Iterable) or isinstance(records, str):
                raise PreconditionError(f"{argument} must be a collection of {record_type.__name__} records, not {records!r}")
            records = tuple(records)
            for rec in records:
                if not isinstance(rec, record_type) or not isinstance(rec.id, str):
                    raise PreconditionError(f"{argument} must hold {record_type.__name__} records with string ids, not {rec!r}")
                if rec.id in seen:
                    raise PreconditionError(f"duplicate id {rec.id!r}")
                seen.add(rec.id)
                for name in required:
                    if getattr(rec, name) is None:
                        raise PreconditionError(f"{rec.id!r} has no {name}")
            groups.append(tuple(sorted(records, key=lambda r: r.id)))
        return cls(surface, *groups)

    @cached_property
    def sing_by_id(self) -> Mapping[str, SingularSet]:
        return {s.id: s for s in self.singular_sets}

    @cached_property
    def orbit_by_id(self) -> Mapping[str, OrbitClass]:
        return {o.id: o for o in self.orbit_classes}

    @cached_property
    def family_by_id(self) -> Mapping[str, Family]:
        return {f.id: f for f in self.families}

    @cached_property
    def classes_by_limit(self) -> Mapping[tuple[str, str], list[tuple[frozenset[str], str]]]:
        """Orbit classes indexed by their resolved alpha and omega limits.

        ``(side, lid)``, with ``side`` "alpha" or "omega", maps to the
        ``(limit, class id)`` pairs whose limit on that side has ``lid`` as its
        least id, so every limit lying inside an id set is found through the
        set's own ids.  Built on first use, with one frozenset per distinct limit.
        """
        out: dict[tuple[str, str], list[tuple[frozenset[str], str]]] = {}
        limits: dict[tuple[str, ...], tuple[str, frozenset[str]]] = {}
        for o in self.orbit_classes:
            for side, ref in (("alpha", o.alpha), ("omega", o.omega)):
                if ref is not None and ref.ids:
                    entry = limits.get(ref.ids)
                    if entry is None:
                        entry = limits[ref.ids] = (min(ref.ids), ref.resolved())
                    lid, limit = entry
                    out.setdefault((side, lid), []).append((limit, o.id))
        return out

    @cached_property
    def _closures(self) -> dict[str, frozenset[str]]:
        return {}

    def closure(self, xid: str) -> frozenset[str]:
        """``closure_of(self, xid)``, computed once per id and kept for the
        life of the complex.  An id whose closure does not resolve is never
        kept, so it raises ``UnknownIdError`` on every call."""
        found = self._closures.get(xid)
        if found is None:
            found = self._closures[xid] = closure_of(self, xid)
        return found

    @cached_property
    def all_ids(self) -> frozenset[str]:
        """Ids of dynamical pieces: singular sets, orbit classes, and families."""
        return frozenset(self.sing_by_id) | frozenset(self.orbit_by_id) | frozenset(self.family_by_id)

    @cached_property
    def saddle_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.singular_sets if s.is_saddle)

    @cached_property
    def saddle_chains(self) -> tuple[AccumulationSchema, ...]:
        """The saddle-chain schemas, in id order."""
        return tuple(a for a in self.accumulation_schemas if a.kind is SADDLE_CHAIN)

    def require(self, xid: str) -> None:
        try:
            if xid in self.all_ids:
                return
        except TypeError:  # unhashable, such as a list
            raise PreconditionError(f"an id is a string, not {xid!r}") from None
        raise UnknownIdError(xid)

    def is_saddle(self, xid: str) -> bool:
        s = self.sing_by_id.get(xid)
        return s is not None and s.is_saddle


def require_complex(fc: object, caller: str) -> None:
    """Reject anything but a ``FlowComplex`` where ``caller`` needs one."""
    if not isinstance(fc, FlowComplex):
        raise PreconditionError(f"{caller} takes a FlowComplex, not {type(fc).__name__}")


def _closure_step(fc: FlowComplex, xid: str) -> frozenset[str]:
    """Ids adjoined to ``xid`` by one application of the closure rule."""
    if xid in fc.sing_by_id:
        return frozenset()
    fam = fc.family_by_id.get(xid)
    if fam is not None:
        return fam.boundary0 | fam.boundary1
    orb = fc.orbit_by_id[xid]
    if orb.kind is PERIODIC:
        return frozenset()
    out: set[str] = set()
    for ref in (orb.alpha, orb.omega):
        if ref is not None:
            out.update(ref.ids)
    if orb.kind is PROPER:
        return frozenset(out)
    # locally dense / exceptional: the declared closure, which must also
    # carry any pinned end limit
    return frozenset(out) | (orb.closure_decl or frozenset())


def closure_of(fc: FlowComplex, xid: str) -> frozenset[str]:
    """Topological closure of the piece named ``xid``, as a set of ids.

    Periodic orbits and singular sets are closed; a proper non-closed orbit
    adds its resolved end limits; dense classes use their declared closure;
    a family closes to its member region together with both boundaries.
    Set-valued limit references expand recursively, so the result is always
    transitively closed.
    """
    fc.require(xid)
    step = _closure_step(fc, xid)
    if fc.sing_by_id.keys() >= step:
        # singular sets are closed, so one step closes the set
        return step | {xid}
    out: set[str] = {xid}
    frontier = [step]
    while frontier:
        for zid in frontier.pop():
            if zid not in out:
                if zid not in fc.all_ids:
                    raise UnknownIdError(zid)
                out.add(zid)
                frontier.append(_closure_step(fc, zid))
    return frozenset(out)


def singularity_accumulation(fc: FlowComplex) -> Optional[AccumulationSchema]:
    """The first schema that encodes infinitely many singularities: a saddle
    chain or a singularity sequence."""
    for schema in fc.accumulation_schemas:
        if schema.kind is SADDLE_CHAIN or schema.kind is SINGULARITY_SEQUENCE:
            return schema
    return None


def _poincare_hopf_applies(fc: FlowComplex) -> bool:
    if not (fc.surface.closed and fc.surface.orientable):
        return False
    if fc.accumulation_schemas:
        return False
    for s in fc.singular_sets:
        if s.shape is not POINT or s.kind not in REGULAR_KINDS:
            return False
    return True


def _check_poincare_hopf(fc: FlowComplex, out: list[Violation]) -> None:
    if not _poincare_hopf_applies(fc):
        return
    counts = {k: 0 for k in PointKind}
    for s in fc.singular_sets:
        counts[s.kind] += 1  # type: ignore[index]
    index_sum = counts[PointKind.CENTER] + counts[PointKind.SINK] + counts[PointKind.SOURCE] - counts[PointKind.SADDLE]
    expected = fc.surface.euler_characteristic
    if index_sum != expected:
        out.append(
            Violation(
                "surface",
                "poincare-hopf",
                f"index sum {index_sum} != Euler characteristic {expected}",
            )
        )


def _check_unresolved(owner: str, ids: Iterable[str], known: frozenset[str], out: list[Violation]) -> None:
    for rid in ids:
        if rid not in known:
            out.append(Violation(owner, "unresolved-id", f"reference to unknown id {rid!r}"))


def _escapes(limits: dict[str, tuple[str, ...]], ids: frozenset[str]) -> list[str]:
    """An invariant collection keeps the declared limits of its members inside
    itself: how the collection ``ids`` breaks that, one detail per member.
    ``limits`` holds the limit ids of every class that is not dense (dense
    members answer for themselves through their declared closure)."""
    escaping = []
    for mid in ids:
        if mid in limits and not ids.issuperset(limits[mid]):
            escaping.append(mid)
    if not escaping:
        return escaping
    return [f"limits of {mid} escape to {sorted(set(limits[mid]) - ids)}" for mid in sorted(escaping)]


def validate(fc: FlowComplex) -> ValidationReport:
    """Check every structural invariant; the report lists all violations found.

    One pass over the orbit classes applies their record-local rules and
    gathers what the others need; the closure-based rules run only when
    every reference resolves.  Violations are listed rule group by rule
    group, in the order of the sections below.
    """
    require_complex(fc, "validate")
    known, sing, orbit_by_id = fc.all_ids, fc.sing_by_id, fc.orbit_by_id
    unresolved: list[Violation] = []
    ref_kinds: list[Violation] = []
    kind_rules: list[Violation] = []
    declared: list[OrbitClass] = []  # dense or exceptional classes with a declared closure
    ld_ids: list[str] = []
    set_refs: list[tuple[str, frozenset[str]]] = []
    limits: dict[str, tuple[str, ...]] = {}  # limit ids of each class that is not dense
    # each saddle owns exactly 2 stable and 2 unstable separatrix slots; a
    # slot is filled by an orbit class whose omega (stable) or alpha
    # (unstable) is a point reference to it, so a homoclinic loop fills one
    # of each
    slots = {sid: [0, 0] for sid in fc.saddle_ids}

    for o in fc.orbit_classes:
        oid, kind, decl, alpha, omega = o.id, o.kind, o.closure_decl, o.alpha, o.omega
        for ref, slot in ((alpha, 1), (omega, 0)):
            if ref is None:
                continue
            ids = ref.ids
            if not known.issuperset(ids):
                _check_unresolved(oid, ids, known, unresolved)
            # sing: names a singular set and orbit: an orbit class; set: names
            # several ids, or one that is not singular (a lone singularity is
            # sing:, which the slot count sees); unknown ids are reported above
            if ref.kind is SET_REF:
                wrong = not ids or (len(ids) == 1 and ids[0] in sing)
                set_refs.append((oid, ref.resolved()))
            else:
                first = ids[0]
                is_sing = ref.kind is SING_REF
                wrong = first not in (sing if is_sing else orbit_by_id) and first in known
                if is_sing and first in slots:
                    slots[first][slot] += 1
            if wrong:
                detail = f"{ref.kind.value}:{','.join(ids)} names the wrong kind of piece"
                ref_kinds.append(Violation(oid, "limit-ref-kind", detail))
        if decl and not decl <= known:
            _check_unresolved(oid, sorted(decl), known, unresolved)
        if kind is PROPER or kind is PERIODIC:
            limits[oid] = (alpha.ids if alpha is not None else ()) + (omega.ids if omega is not None else ())
            if kind is PERIODIC:
                if alpha is not None or omega is not None:
                    kind_rules.append(Violation(oid, "periodic-has-limit", "periodic orbits are their own limit sets"))
            elif alpha is None or omega is None:
                kind_rules.append(Violation(oid, "proper-missing-limit", "proper non-closed orbits carry both limits"))
        else:
            if kind is LOCALLY_DENSE:
                ld_ids.append(oid)
            if not decl:
                kind_rules.append(Violation(oid, "dense-missing-closure", "dense classes declare their closure"))
            else:
                declared.append(o)
                if oid not in decl:
                    kind_rules.append(Violation(oid, "closure-missing-self", "a closure contains the class itself"))

    for f in fc.families:
        if not (f.boundary0 <= known and f.boundary1 <= known):
            _check_unresolved(f.id, sorted(f.boundary0 | f.boundary1), known, unresolved)
    for a in fc.accumulation_schemas:
        _check_unresolved(a.id, (*a.samples, *sorted(a.target)), known, unresolved)
    for d in fc.saddle_set_decls:
        if not d.members <= known:
            _check_unresolved(d.id, sorted(d.members), known, unresolved)
    # closure-based checks need resolvable references; everything record-local
    # still runs so the report stays complete
    refs_ok = not unresolved
    out = unresolved + ref_kinds

    for s in fc.singular_sets:
        if s.shape is POINT:
            if s.kind is None:
                out.append(Violation(s.id, "point-missing-kind", "point singularity needs a kind"))
        elif s.kind is not None:
            out.append(Violation(s.id, "continuum-kind", "arc/circle singular sets carry no point kind"))
    out += kind_rules

    if refs_ok:
        # declared closures must already be closed, and locally dense classes
        # listed together must agree on their shared minimal closure
        dense = frozenset(ld_ids)
        for o in declared:
            computed = fc.closure(o.id)
            if computed != o.closure_decl:
                detail = f"declared closure is not closed; closing adds {sorted(computed - o.closure_decl)}"
                out.append(Violation(o.id, "closure-decl-not-closed", detail))
            if o.kind is LOCALLY_DENSE:
                mine = o.closure_decl & dense
                for other in sorted(mine - {o.id}):
                    if (orbit_by_id[other].closure_decl or frozenset()) & dense != mine:
                        detail = f"{other} does not share the same dense part of the closure"
                        out.append(Violation(o.id, "locally-dense-closure-mismatch", detail))
        for oid, ids in set_refs:
            out.extend(Violation(oid, "set-ref-not-invariant", detail) for detail in _escapes(limits, ids))

    escapes: dict[frozenset[str], list[str]] = {}  # per distinct boundary: neighbours share one
    for f in fc.families:
        for bset, shrinks in f.boundaries():
            if refs_ok:
                details = escapes.get(bset)
                if details is None:
                    details = escapes[bset] = _escapes(limits, bset)
                if details:
                    out.extend(Violation(f.id, "family-boundary-not-invariant", detail) for detail in details)
            single_point = False
            if len(bset) == 1:
                [bid] = bset
                single_point = bid in sing and sing[bid].shape is POINT
            if shrinks and not single_point:
                out.append(Violation(f.id, "shrink-boundary-not-point", "a shrinking boundary is a single point singularity"))
            if single_point and not shrinks:
                out.append(Violation(f.id, "point-boundary-needs-shrink", "members converging to a point must shrink"))

    for a in fc.accumulation_schemas:
        if not a.samples or not a.target:
            out.append(Violation(a.id, "schema-empty", "samples and target must be nonempty"))
            continue
        if set(a.samples) & a.target:
            out.append(Violation(a.id, "schema-target-overlap", "target must be disjoint from samples"))
        if a.kind is SINGULARITY_SEQUENCE:
            bad = [s for s in a.samples if s not in sing]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"singularity sequence samples must be singular: {bad}"))
            nonsing = [t for t in sorted(a.target) if t not in sing]
            if nonsing:
                out.append(Violation(a.id, "schema-target-kind", f"limit of singularities must be singular: {nonsing}"))
        elif a.kind is FAMILY_SEQUENCE:
            bad = [s for s in a.samples if s not in fc.family_by_id]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"family sequence samples must be families: {bad}"))
        else:  # saddle chain: a pattern of saddles and the orbits joining them
            bad = [s for s in a.samples if not (s in fc.saddle_ids or s in orbit_by_id)]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"saddle chain samples must be saddles or orbits: {bad}"))

    if refs_ok:
        for d in fc.saddle_set_decls:
            for mid in sorted(d.members):
                if not fc.closure(mid) <= d.members:
                    out.append(Violation(d.id, "saddleset-not-invariant", f"closure of {mid} escapes the declared set"))

    for sid in sorted(slots):
        stable, unstable = slots[sid]
        if stable != 2 or unstable != 2:
            detail = f"stable slots filled: {stable}, unstable slots filled: {unstable} (need 2 + 2)"
            out.append(Violation(sid, "saddle-slot-count", detail))
    _check_poincare_hopf(fc, out)
    return ValidationReport(tuple(out))
