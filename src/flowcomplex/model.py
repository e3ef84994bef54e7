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


@dataclass(frozen=True)
class SurfaceInfo:
    """Topological type of the underlying compact connected surface."""

    genus: int
    orientable: bool
    boundary_components: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.boundary_components < 0:
            raise ValueError("boundary_components must be non-negative")

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
        return self.shape is Shape.POINT and self.kind is PointKind.SADDLE


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
        """Construct with records sorted by id; duplicate ids are rejected."""
        sing = tuple(sorted(singular_sets, key=lambda r: r.id))
        orb = tuple(sorted(orbit_classes, key=lambda r: r.id))
        fam = tuple(sorted(families, key=lambda r: r.id))
        acc = tuple(sorted(accumulation_schemas, key=lambda r: r.id))
        dec = tuple(sorted(saddle_set_decls, key=lambda r: r.id))
        seen: set[str] = set()
        for rec in (*sing, *orb, *fam, *acc, *dec):
            if rec.id in seen:
                raise ValueError(f"duplicate id {rec.id!r}")
            seen.add(rec.id)
        return cls(surface, sing, orb, fam, acc, dec)

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
    def schema_by_id(self) -> Mapping[str, AccumulationSchema]:
        return {a.id: a for a in self.accumulation_schemas}

    @cached_property
    def decl_by_id(self) -> Mapping[str, SaddleSetDecl]:
        return {d.id: d for d in self.saddle_set_decls}

    @cached_property
    def classes_by_limit(self) -> Mapping[tuple[str, str], list[tuple[frozenset[str], str]]]:
        """Orbit classes indexed by their resolved alpha and omega limits.

        ``(side, lid)``, with ``side`` "alpha" or "omega", maps to the
        ``(limit, class id)`` pairs whose limit on that side has ``lid`` as its
        least id, so every limit lying inside an id set is found through the
        set's own ids.  Built on first use.
        """
        out: dict[tuple[str, str], list[tuple[frozenset[str], str]]] = {}
        for o in self.orbit_classes:
            for side, ref in (("alpha", o.alpha), ("omega", o.omega)):
                if ref is not None and ref.ids:
                    out.setdefault((side, min(ref.ids)), []).append((ref.resolved(), o.id))
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

    def has(self, xid: str) -> bool:
        return xid in self.all_ids

    def require(self, xid: str) -> None:
        if xid not in self.all_ids:
            raise UnknownIdError(xid)

    def is_saddle(self, xid: str) -> bool:
        s = self.sing_by_id.get(xid)
        return s is not None and s.is_saddle


def _ref_sites(fc: FlowComplex) -> Iterable[tuple[str, str]]:
    """Yield (owner id, referenced id) for every id reference in the complex."""
    for o in fc.orbit_classes:
        for ref in (o.alpha, o.omega):
            if ref is not None:
                for rid in ref.ids:
                    yield o.id, rid
        if o.closure_decl:
            for rid in o.closure_decl:
                yield o.id, rid
    for f in fc.families:
        for rid in f.boundary0 | f.boundary1:
            yield f.id, rid
    for a in fc.accumulation_schemas:
        for rid in (*a.samples, *a.target):
            yield a.id, rid
    for d in fc.saddle_set_decls:
        for rid in d.members:
            yield d.id, rid


def _closure_step(fc: FlowComplex, xid: str) -> frozenset[str]:
    """Ids adjoined to ``xid`` by one application of the closure rule."""
    if xid in fc.sing_by_id:
        return frozenset()
    fam = fc.family_by_id.get(xid)
    if fam is not None:
        return fam.boundary0 | fam.boundary1
    orb = fc.orbit_by_id[xid]
    if orb.kind is OrbitKind.PERIODIC:
        return frozenset()
    out: set[str] = set()
    for ref in (orb.alpha, orb.omega):
        if ref is not None:
            out.update(ref.ids)
    if orb.kind is OrbitKind.PROPER:
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
    out: set[str] = {xid}
    frontier = [xid]
    while frontier:
        yid = frontier.pop()
        for zid in _closure_step(fc, yid):
            if zid not in out:
                if zid not in fc.all_ids:
                    raise UnknownIdError(zid)
                out.add(zid)
                frontier.append(zid)
    return frozenset(out)


def singularity_accumulation(fc: FlowComplex) -> Optional[AccumulationSchema]:
    """The first schema that encodes infinitely many singularities: a saddle
    chain or a singularity sequence."""
    for schema in fc.accumulation_schemas:
        if schema.kind in (SchemaKind.SADDLE_CHAIN, SchemaKind.SINGULARITY_SEQUENCE):
            return schema
    return None


@dataclass(frozen=True)
class Partition:
    """The five-way split of ids by dynamical role."""

    singular: frozenset[str]
    periodic: frozenset[str]
    locally_dense: frozenset[str]
    exceptional: frozenset[str]
    proper: frozenset[str]

    def as_dict(self) -> dict[str, frozenset[str]]:
        return {
            "singular": self.singular,
            "periodic": self.periodic,
            "locally_dense": self.locally_dense,
            "exceptional": self.exceptional,
            "proper": self.proper,
        }


def partition_orbits(fc: FlowComplex) -> Partition:
    """Split all dynamical ids into singular / periodic / dense / exceptional / proper.

    Family ids land in the periodic bucket: a periodic annulus is a bundle
    of periodic orbits, and a closed-extended-orbit region is a bundle of
    compact invariant sets represented the same way.
    """
    by_kind: dict[OrbitKind, set[str]] = {k: set() for k in OrbitKind}
    for o in fc.orbit_classes:
        by_kind[o.kind].add(o.id)
    periodic = set(by_kind[OrbitKind.PERIODIC]) | set(fc.family_by_id)
    return Partition(
        singular=frozenset(fc.sing_by_id),
        periodic=frozenset(periodic),
        locally_dense=frozenset(by_kind[OrbitKind.LOCALLY_DENSE]),
        exceptional=frozenset(by_kind[OrbitKind.EXCEPTIONAL]),
        proper=frozenset(by_kind[OrbitKind.PROPER]),
    )


def _check_saddle_slots(fc: FlowComplex, out: list[Violation]) -> None:
    # Each saddle owns exactly 2 stable and 2 unstable separatrix slots.
    # A slot is filled by an orbit class whose omega (stable) or alpha
    # (unstable) is a point reference to that saddle; a homoclinic loop
    # fills one slot of each kind.
    stable: dict[str, int] = {s: 0 for s in fc.saddle_ids}
    unstable: dict[str, int] = {s: 0 for s in fc.saddle_ids}
    for o in fc.orbit_classes:
        for ref, slots in ((o.omega, stable), (o.alpha, unstable)):
            if ref is not None and ref.kind is RefKind.SING and ref.ids[0] in slots:
                slots[ref.ids[0]] += 1
    for sid in sorted(fc.saddle_ids):
        if stable[sid] != 2 or unstable[sid] != 2:
            out.append(
                Violation(
                    sid,
                    "saddle-slot-count",
                    f"stable slots filled: {stable[sid]}, unstable slots filled: {unstable[sid]} (need 2 + 2)",
                )
            )


def _check_limit_ref_kinds(fc: FlowComplex, out: list[Violation]) -> None:
    # sing: names a singular set and orbit: an orbit class; set: names
    # several ids, or one that is not singular (a lone singularity is
    # sing:, which the slot count sees).  Unknown ids are left to the
    # unresolved-id rule.
    known, sing = fc.all_ids, fc.sing_by_id
    table = {RefKind.SING: sing, RefKind.ORBIT: fc.orbit_by_id}
    for o in fc.orbit_classes:
        for ref in (o.alpha, o.omega):
            if ref is None:
                continue
            ids = ref.ids
            if ref.kind is RefKind.SET:
                wrong = not ids or (len(ids) == 1 and ids[0] in sing)
            else:
                wrong = ids[0] not in table[ref.kind] and ids[0] in known
            if wrong:
                detail = f"{ref.kind.value}:{','.join(ids)} names the wrong kind of piece"
                out.append(Violation(o.id, "limit-ref-kind", detail))


def _poincare_hopf_applies(fc: FlowComplex) -> bool:
    if not (fc.surface.closed and fc.surface.orientable):
        return False
    if fc.accumulation_schemas:
        return False
    for s in fc.singular_sets:
        if s.shape is not Shape.POINT or s.kind not in REGULAR_KINDS:
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


def _raw_limit_ids(orb: OrbitClass) -> frozenset[str]:
    out: set[str] = set()
    for ref in (orb.alpha, orb.omega):
        if ref is not None:
            out.update(ref.ids)
    return frozenset(out)


def _check_invariant_collection(fc: FlowComplex, owner: str, ids: frozenset[str], rule: str, out: list[Violation]) -> None:
    """An invariant collection keeps the declared limits of its members inside itself."""
    for mid in sorted(ids):
        orb = fc.orbit_by_id.get(mid)
        if orb is None:
            continue
        if orb.kind in (OrbitKind.LOCALLY_DENSE, OrbitKind.EXCEPTIONAL):
            # dense members answer for themselves through their declared closure
            continue
        escape = _raw_limit_ids(orb) - ids
        if escape:
            out.append(Violation(owner, rule, f"limits of {mid} escape to {sorted(escape)}"))


def validate(fc: FlowComplex) -> ValidationReport:
    """Check every structural invariant; the report lists all violations found."""
    out: list[Violation] = []

    known = fc.all_ids
    for owner, rid in _ref_sites(fc):
        if rid not in known:
            out.append(Violation(owner, "unresolved-id", f"reference to unknown id {rid!r}"))
    # closure-based checks need resolvable references; everything record-local
    # still runs so the report stays complete
    refs_ok = not out

    _check_limit_ref_kinds(fc, out)

    for s in fc.singular_sets:
        if s.shape is Shape.POINT:
            if s.kind is None:
                out.append(Violation(s.id, "point-missing-kind", "point singularity needs a kind"))
        elif s.kind is not None:
            out.append(Violation(s.id, "continuum-kind", "arc/circle singular sets carry no point kind"))

    for o in fc.orbit_classes:
        if o.kind is OrbitKind.PROPER:
            if o.alpha is None or o.omega is None:
                out.append(Violation(o.id, "proper-missing-limit", "proper non-closed orbits carry both limits"))
        elif o.kind is OrbitKind.PERIODIC:
            if o.alpha is not None or o.omega is not None:
                out.append(Violation(o.id, "periodic-has-limit", "periodic orbits are their own limit sets"))
        else:
            if not o.closure_decl:
                out.append(Violation(o.id, "dense-missing-closure", "dense classes declare their closure"))
            elif o.id not in o.closure_decl:
                out.append(Violation(o.id, "closure-missing-self", "a closure contains the class itself"))

    # declared closures must already be closed, and locally dense classes
    # listed together must agree on their shared minimal closure
    ld_ids = frozenset(o.id for o in fc.orbit_classes if o.kind is OrbitKind.LOCALLY_DENSE)
    for o in fc.orbit_classes:
        if o.kind in (OrbitKind.LOCALLY_DENSE, OrbitKind.EXCEPTIONAL) and o.closure_decl and refs_ok:
            computed = closure_of(fc, o.id)
            if computed != o.closure_decl:
                out.append(
                    Violation(
                        o.id,
                        "closure-decl-not-closed",
                        f"declared closure is not closed; closing adds {sorted(computed - o.closure_decl)}",
                    )
                )
        if o.kind is OrbitKind.LOCALLY_DENSE and o.closure_decl and refs_ok:
            mine = o.closure_decl & ld_ids
            for other in sorted(mine - {o.id}):
                decl = fc.orbit_by_id[other].closure_decl or frozenset()
                if decl & ld_ids != mine:
                    out.append(
                        Violation(
                            o.id,
                            "locally-dense-closure-mismatch",
                            f"{other} does not share the same dense part of the closure",
                        )
                    )

    if refs_ok:
        for o in fc.orbit_classes:
            for ref in (o.alpha, o.omega):
                if ref is not None and ref.kind is RefKind.SET:
                    _check_invariant_collection(fc, o.id, ref.resolved(), "set-ref-not-invariant", out)

    for f in fc.families:
        for bset, shrinks in f.boundaries():
            if refs_ok:
                _check_invariant_collection(fc, f.id, bset, "family-boundary-not-invariant", out)
            single_point = len(bset) == 1 and next(iter(bset)) in fc.sing_by_id and fc.sing_by_id[
                next(iter(bset))
            ].shape is Shape.POINT
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
        if a.kind is SchemaKind.SINGULARITY_SEQUENCE:
            bad = [s for s in a.samples if s not in fc.sing_by_id]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"singularity sequence samples must be singular: {bad}"))
            nonsing = [t for t in sorted(a.target) if t not in fc.sing_by_id]
            if nonsing:
                out.append(Violation(a.id, "schema-target-kind", f"limit of singularities must be singular: {nonsing}"))
        elif a.kind is SchemaKind.FAMILY_SEQUENCE:
            bad = [s for s in a.samples if s not in fc.family_by_id]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"family sequence samples must be families: {bad}"))
        else:  # saddle chain: a pattern of saddles and the orbits joining them
            bad = [s for s in a.samples if not (fc.is_saddle(s) or s in fc.orbit_by_id)]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"saddle chain samples must be saddles or orbits: {bad}"))

    if refs_ok:
        for d in fc.saddle_set_decls:
            for mid in sorted(d.members):
                if closure_of(fc, mid) - d.members:
                    out.append(Violation(d.id, "saddleset-not-invariant", f"closure of {mid} escapes the declared set"))

    _check_saddle_slots(fc, out)
    _check_poincare_hopf(fc, out)
    return ValidationReport(tuple(out))
