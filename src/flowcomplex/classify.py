"""Deciders for the recurrence hierarchy and singularity character.

Every decision is a pure function of a validated flow complex.  Flow-level
verdicts carry a witness (an id set plus the rule that fired) whenever they
are negative, so reports are auditable.  A shared per-complex cache keeps
repeated extension and closure queries cheap when a full report or the
theorem harness is assembled.  Verdicts and checks never run the per-seed
fixpoint: recurrence reads one-sided payloads from the engines' tables
(``Classifier.payload``), everything else reads the plain two-sided extended
orbit of each id from one table built from them (``Classifier.members``),
and a fact of the member set alone is decided once per distinct extended
orbit (``Classifier.leads``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, wraps
from typing import Callable, Optional

from .model import (
    FamilyKind,
    FlowComplex,
    OrbitKind,
    PointKind,
    PreconditionError,
    REGULAR_KINDS,
    RefKind,
    SchemaKind,
    Shape,
    singularity_accumulation,
)
from .orbits import CycleSide, Expansion, LimitCycle, has_periodic_member_kinds, orbit_set_closure


@dataclass(frozen=True)
class Witness:
    ids: tuple[str, ...]
    rule: str

    def describe(self) -> str:
        return f"{self.rule}: {', '.join(self.ids)}"


@dataclass(frozen=True)
class Verdict:
    verdict: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class ClassificationReport:
    non_wandering: Verdict
    recurrent: Verdict
    extended_recurrent: Verdict
    extended_pap: Verdict
    extended_r_closed: Verdict
    regular: Verdict
    generalized_recurrent: Verdict

    FIELDS = (
        "non_wandering",
        "recurrent",
        "extended_recurrent",
        "extended_pap",
        "extended_r_closed",
        "regular",
        "generalized_recurrent",
    )

    def as_dict(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name in self.FIELDS:
            v: Verdict = getattr(self, name)
            entry: dict = {"verdict": v.verdict}
            if v.witness is not None:
                entry["witness"] = {"ids": list(v.witness.ids), "rule": v.witness.rule}
            out[name] = entry
        return out


class DichotomyCase(str, Enum):
    NON_SADDLE_SINGULARITY_IN_CLOSURE = "NonSaddleSingularityInClosure"
    MEETS_LOCALLY_DENSE = "MeetsLocallyDense"
    VIOLATION = "Violation"


def _once(verdict: Callable[["Classifier"], Verdict]) -> Callable[["Classifier"], Verdict]:
    """Decide a flow-level verdict once per ``Classifier``: it is a pure
    function of the immutable complex."""
    name = verdict.__name__

    @wraps(verdict)
    def cached(self: "Classifier") -> Verdict:
        if name not in self._verdicts:
            self._verdicts[name] = verdict(self)
        return self._verdicts[name]

    return cached


_EMPTY: frozenset[str] = frozenset()


def _join(fwd: frozenset[str], bwd: frozenset[str]) -> frozenset[str]:
    """The union of two one-sided payloads: a side itself when it holds the other."""
    return fwd if bwd <= fwd else bwd if fwd <= bwd else fwd | bwd


class Classifier:
    """Cached per-complex classification engine.

    The module-level functions below are the public surface; they build a
    throwaway instance.  Report assembly and the theorem harness reuse one
    instance so extended member sets, blocks and verdicts are computed once;
    closures are kept by the complex itself (``FlowComplex.closure``).  Scans
    for a witness run over ``ids``, or over ``leads`` when what they test
    depends on the two-sided member set alone: the first failing lead is
    then the first failing id.
    """

    def __init__(self, fc: FlowComplex):
        self.fc = fc
        self._block_of_members: dict[frozenset[str], frozenset[str]] = {}
        self._blocks: Optional[dict[str, frozenset[str]]] = None
        self._verdicts: dict[str, Verdict] = {}

    # -- cached primitives -------------------------------------------------

    @cached_property
    def _plain(self) -> Expansion:
        return Expansion.plain(self.fc)

    @cached_property
    def _generalized(self) -> Expansion:
        """The generalized engine, or the plain one itself when no declared
        set is admitted: the two then have the same expansion sets.  Built
        at the first generalized payload query, which checks the
        declarations whichever engine is kept."""
        engine = Expansion.generalized(self.fc)
        return self._plain if engine.sets == self._plain.sets else engine

    def payload(self, xid: str, forward: bool, generalized: bool = False) -> frozenset[str]:
        """What the one-sided extension of ``xid`` adds to it, from the engine's
        table: empty if ``xid`` fires no set, holding ``xid`` if it is re-added."""
        self.fc.require(xid)
        engine = self._generalized if generalized else self._plain
        return engine.payloads(forward).get(xid, _EMPTY)

    def members(self, xid: str) -> frozenset[str]:
        """The plain two-sided extended orbit of ``xid``."""
        if xid not in self._members:
            self.fc.require(xid)
        return self._members[xid]

    @cached_property
    def _members(self) -> dict[str, frozenset[str]]:
        """``members`` of every id, in ``ids`` order: ``xid`` plus the join of
        its two payloads.  Each distinct pair of rows is joined once, and the
        ids inside a join share it."""
        fwd_table, bwd_table = self._plain.payloads(True), self._plain.payloads(False)
        joins: dict[tuple[frozenset[str], frozenset[str]], frozenset[str]] = {}
        out = {}
        for xid in self.ids:
            fwd, bwd = fwd_table.get(xid), bwd_table.get(xid)
            if fwd is not None and bwd is not None:
                # shared rows keep their hashes, so the pair is a cheap key
                fwd = joins.get((fwd, bwd)) or joins.setdefault((fwd, bwd), _join(fwd, bwd))
            # a payload is never empty
            payload = fwd or bwd or _EMPTY
            out[xid] = payload if xid in payload else payload | {xid}
        return out

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Every id, sorted: the order in which witnesses are searched."""
        return tuple(sorted(self.fc.all_ids))

    @cached_property
    def leads(self) -> tuple[str, ...]:
        """One id per distinct two-sided extended orbit, the least id whose
        extended orbit it is, in ascending order."""
        first: dict[frozenset[str], str] = {}
        for xid, members in self._members.items():
            first.setdefault(members, xid)
        return tuple(first.values())

    def _closure_of_members(self, members: frozenset[str]) -> frozenset[str]:
        found = self._block_of_members.get(members)
        if found is None:
            found = orbit_set_closure(self.fc, members)
            if found == members:
                found = members  # a closed member set is its own block: keep one copy
            self._block_of_members[members] = found
        return found

    def block(self, xid: str) -> frozenset[str]:
        """Closure of the two-sided extended orbit of ``xid``, with family ids
        standing for one generic member; computed once per distinct member
        set."""
        return self._closure_of_members(self.members(xid))

    def blocks(self) -> dict[str, frozenset[str]]:
        """``block`` of every lead, in lead order."""
        if self._blocks is None:
            self._blocks = {xid: self.block(xid) for xid in self.leads}
        return self._blocks

    def extension_closed(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is a closed set."""
        members = self.members(xid)
        return self._closure_of_members(members) <= members

    def extended_periodic(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is compact: a closed
        member set of the kinds ``has_periodic_member_kinds`` admits."""
        members = self.members(xid)
        return has_periodic_member_kinds(self.fc, members) and self._closure_of_members(members) <= members

    # -- pointwise recurrence ----------------------------------------------

    def positively_recurrent(self, xid: str) -> bool:
        return self._recurrent(xid, forward=True)

    def negatively_recurrent(self, xid: str) -> bool:
        return self._recurrent(xid, forward=False)

    def _recurrent(self, xid: str, forward: bool) -> bool:
        fc = self.fc
        fc.require(xid)
        if xid in fc.sing_by_id:
            return True
        fam = fc.family_by_id.get(xid)
        if fam is not None:
            return fam.kind is FamilyKind.PERIODIC_ANNULUS
        orb = fc.orbit_by_id[xid]
        if orb.kind is OrbitKind.PERIODIC:
            return True
        if orb.kind is OrbitKind.PROPER:
            return False
        # dense classes come back on the side whose end is not pinned to a limit
        pinned = orb.omega if forward else orb.alpha
        return pinned is None

    def extended_recurrent_point(self, xid: str, forward: bool, generalized: bool = False) -> bool:
        fc = self.fc
        if self._recurrent(xid, forward):
            return True
        fam = fc.family_by_id.get(xid)
        if fam is not None:
            # a closed-extended-orbit region declares that each member is a
            # compact extended orbit, whose points re-approach themselves
            return fam.kind is FamilyKind.CLOSED_EXTENDED_REGION
        payload = self.payload(xid, forward, generalized)
        return xid in payload or any(xid in fc.closure(oid) for oid in sorted(payload))

    # -- flow-level verdicts -------------------------------------------------

    @_once
    def recurrent_flow(self) -> Verdict:
        for xid in self.ids:
            if not (self.positively_recurrent(xid) and self.negatively_recurrent(xid)):
                return Verdict(False, Witness((xid,), "non-recurrent-point"))
        return Verdict(True)

    def _every_point_extended_recurrent(self, generalized: bool) -> Verdict:
        kind = "generalized" if generalized else "extended"
        for xid in self.ids:
            for forward, side in ((True, "positively"), (False, "negatively")):
                if not self.extended_recurrent_point(xid, forward, generalized):
                    return Verdict(False, Witness((xid,), f"not-{kind}-{side}-recurrent"))
        return Verdict(True)

    @_once
    def extended_recurrent(self) -> Verdict:
        return self._every_point_extended_recurrent(generalized=False)

    @_once
    def generalized_recurrent(self) -> Verdict:
        return self._every_point_extended_recurrent(generalized=True)

    @cached_property
    def routed(self) -> frozenset[str]:
        """Ids with a declared route into the closure of the recurrent part:
        the closure of a locally dense or exceptional class, a periodic
        annulus boundary, or a family-sequence target."""
        fc = self.fc
        out: set[str] = set()
        for o in fc.orbit_classes:
            if o.kind in (OrbitKind.LOCALLY_DENSE, OrbitKind.EXCEPTIONAL):
                out |= fc.closure(o.id)
        for fam in fc.families:
            if fam.kind is FamilyKind.PERIODIC_ANNULUS:
                out |= fam.boundary0 | fam.boundary1
        for schema in fc.accumulation_schemas:
            if schema.kind is SchemaKind.FAMILY_SEQUENCE:
                out |= schema.target
        return frozenset(out)

    @_once
    def nonwandering(self) -> Verdict:
        """Every proper non-closed class needs a declared route into the
        closure of the recurrent part; there is no benefit of the doubt."""
        for o in self.fc.orbit_classes:
            if o.kind is OrbitKind.PROPER and o.id not in self.routed:
                return Verdict(False, Witness((o.id,), "wandering-proper-class"))
        return Verdict(True)

    @_once
    def extended_pap(self) -> Verdict:
        """The closures of extended orbits must pairwise coincide or be disjoint.

        One pass over the distinct blocks, each led by its least id, marks
        the ids that two distinct blocks hold.  The witness is the first
        overlapping pair of ids in sorted order: the least lead of a block
        holding a marked id, then the least lead of another block meeting it
        (every partner of that first id is larger than it).  The least id of
        a block is the lead of its own extended orbit.
        """
        lead: dict[frozenset[str], str] = {}
        for xid, block in self.blocks().items():
            lead.setdefault(block, xid)
        owner: dict[str, str] = {}
        shared: set[str] = set()
        for block, x in lead.items():
            for eid in block:
                if owner.setdefault(eid, x) != x:
                    shared.add(eid)
        for bx, x in lead.items():
            if not shared.isdisjoint(bx):
                y = next(y for by, y in lead.items() if y != x and not by.isdisjoint(bx))
                return Verdict(False, Witness((x, y), "block-overlap"))
        return Verdict(True)

    def _usc_witness(self) -> Optional[Witness]:
        """Symbolic upper semicontinuity of the block decomposition.

        Family members converge onto each non-shrinking boundary, so every
        boundary member's block must absorb the whole boundary set.  A fixed
        continuum in such a boundary always breaks this: its points carry
        singleton blocks, which cannot absorb the continuum they sit in.
        Schema samples converge onto the target, so each target member's
        block must absorb the target together with whatever all sample
        blocks share.
        """
        for fam in self.fc.families:
            for bset, shrinks in fam.boundaries():
                if shrinks:
                    continue
                for bid in sorted(bset):
                    sing = self.fc.sing_by_id.get(bid)
                    if sing is not None and sing.shape is not Shape.POINT:
                        return Witness((fam.id, bid), "continuum-in-limit")
                    if not bset <= self.block(bid):
                        return Witness((fam.id, bid), "family-boundary-not-absorbed")
        for schema in self.fc.accumulation_schemas:
            # what every instance's block carries along persists in the limit;
            # a single declared instance gives no evidence of a shared part
            shared: frozenset[str] = frozenset()
            if len(schema.samples) >= 2:
                shared = self.block(schema.samples[0])
                for sid in schema.samples[1:]:
                    shared = shared & self.block(sid)
            limit = schema.target | shared
            for tid in sorted(schema.target):
                if not limit <= self.block(tid):
                    return Witness((schema.id, tid), "schema-limit-not-absorbed")
        return None

    @_once
    def extended_r_closed(self) -> Verdict:
        pap = self.extended_pap()
        if not pap.verdict:
            return Verdict(False, pap.witness)
        usc = self._usc_witness()
        if usc is not None:
            return Verdict(False, usc)
        return Verdict(True)

    @_once
    def regular(self) -> Verdict:
        for s in self.fc.singular_sets:
            if s.shape is not Shape.POINT or s.kind not in REGULAR_KINDS:
                return Verdict(False, Witness((s.id,), "degenerate-singularity"))
        schema = singularity_accumulation(self.fc)
        if schema is not None:
            return Verdict(False, Witness((schema.id,), "singularity-accumulation"))
        return Verdict(True)

    def report(self) -> ClassificationReport:
        return ClassificationReport(
            non_wandering=self.nonwandering(),
            recurrent=self.recurrent_flow(),
            extended_recurrent=self.extended_recurrent(),
            extended_pap=self.extended_pap(),
            extended_r_closed=self.extended_r_closed(),
            regular=self.regular(),
            generalized_recurrent=self.generalized_recurrent(),
        )

    # -- singularity character and dichotomy ---------------------------------

    def extended_center(self, sid: str) -> bool:
        fc = self.fc
        fc.require(sid)
        sing = fc.sing_by_id.get(sid)
        if sing is None or sing.shape is not Shape.POINT:
            raise PreconditionError(f"{sid!r} is not a point singularity")
        if sing.kind is PointKind.CENTER:
            return True
        for fam in fc.families:
            for bset, shrinks in fam.boundaries():
                if shrinks and bset == frozenset({sid}):
                    return True
        return False

    @cached_property
    def _non_saddle_singular(self) -> frozenset[str]:
        return frozenset(s.id for s in self.fc.singular_sets if not s.is_saddle)

    @cached_property
    def dense_ids(self) -> frozenset[str]:
        """The locally dense classes."""
        return frozenset(o.id for o in self.fc.orbit_classes if o.kind is OrbitKind.LOCALLY_DENSE)

    @cached_property
    def _dense_closures(self) -> frozenset[str]:
        """The union of the closures of the locally dense classes."""
        return frozenset().union(*(self.fc.closure(oid) for oid in sorted(self.dense_ids)))

    def dichotomy(self, xid: str) -> DichotomyCase:
        """Which case holds for the closure of a non-closed extended orbit: two
        set tests, against sets built once per ``Classifier``."""
        if not self.extended_recurrent().verdict:
            raise PreconditionError("dichotomy requires an extended recurrent flow")
        members = self.members(xid)
        closure = self._closure_of_members(members)
        if closure <= members:
            raise PreconditionError(f"extended orbit of {xid!r} is closed")
        if not closure.isdisjoint(self._non_saddle_singular):
            return DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE
        if not members.isdisjoint(self._dense_closures):
            return DichotomyCase.MEETS_LOCALLY_DENSE
        return DichotomyCase.VIOLATION

    # -- limit cycles ---------------------------------------------------------

    def limit_cycles(self) -> list[LimitCycle]:
        """Unions of closed curves, other than a single singularity, that lie
        inside an extended orbit and are the declared alpha or omega limit of
        an orbit class outside them."""
        fc = self.fc
        candidates: set[frozenset[str]] = set()
        for o in fc.orbit_classes:
            for ref in (o.alpha, o.omega):
                if ref is None:
                    continue
                if ref.kind is RefKind.SET:
                    candidates.add(ref.resolved())
                elif ref.kind is RefKind.ORBIT:
                    target = fc.orbit_by_id.get(ref.ids[0])
                    if target is not None and target.kind is OrbitKind.PERIODIC:
                        candidates.add(frozenset(ref.ids))
        results: list[LimitCycle] = []
        for gamma in sorted(candidates, key=sorted):
            if len(gamma) == 1 and next(iter(gamma)) in fc.sing_by_id:
                continue
            if not _is_closed_curve_union(fc, gamma):
                continue
            if not any(gamma <= self.members(mid) for mid in sorted(gamma)):
                continue
            witnesses = [
                (oid, side)
                for side in CycleSide
                for limit, oid in fc.classes_by_limit.get((side.value, min(gamma)), ())
                if limit == gamma and oid not in gamma
            ]
            if witnesses:
                wid, side = min(witnesses)
                results.append(LimitCycle(cycle=gamma, witness=wid, side=side))
        return results


def _is_closed_curve_union(fc: FlowComplex, ids: frozenset[str]) -> bool:
    # periodic orbits stand alone; proper arcs must concatenate through the
    # saddles of the set into circles (balanced in/out degree at each saddle)
    indeg: dict[str, int] = {}
    outdeg: dict[str, int] = {}
    for mid in ids:
        if fc.is_saddle(mid):
            indeg.setdefault(mid, 0)
            outdeg.setdefault(mid, 0)
            continue
        orb = fc.orbit_by_id.get(mid)
        if orb is None:
            return False
        if orb.kind is OrbitKind.PERIODIC:
            continue
        if orb.kind is not OrbitKind.PROPER:
            return False
        for ref, deg in ((orb.alpha, outdeg), (orb.omega, indeg)):
            if ref is None or ref.kind is not RefKind.SING:
                return False
            end = ref.ids[0]
            if end not in ids or not fc.is_saddle(end):
                return False
            deg[end] = deg.get(end, 0) + 1
    for sid in indeg:
        if indeg[sid] != outdeg[sid] or indeg[sid] < 1:
            return False
    return True


# -- public functions --------------------------------------------------------


def is_positively_recurrent(fc: FlowComplex, xid: str) -> bool:
    return Classifier(fc).positively_recurrent(xid)


def is_negatively_recurrent(fc: FlowComplex, xid: str) -> bool:
    return Classifier(fc).negatively_recurrent(xid)


def is_extended_positively_recurrent(fc: FlowComplex, xid: str) -> bool:
    return Classifier(fc).extended_recurrent_point(xid, forward=True)


def is_extended_negatively_recurrent(fc: FlowComplex, xid: str) -> bool:
    return Classifier(fc).extended_recurrent_point(xid, forward=False)


def is_extended_periodic(fc: FlowComplex, xid: str) -> bool:
    return Classifier(fc).extended_periodic(xid)


def is_recurrent(fc: FlowComplex) -> Verdict:
    return Classifier(fc).recurrent_flow()


def is_extended_recurrent(fc: FlowComplex) -> Verdict:
    return Classifier(fc).extended_recurrent()


def is_nonwandering(fc: FlowComplex) -> Verdict:
    return Classifier(fc).nonwandering()


def is_extended_pap(fc: FlowComplex) -> Verdict:
    return Classifier(fc).extended_pap()


def is_extended_r_closed(fc: FlowComplex) -> Verdict:
    return Classifier(fc).extended_r_closed()


def is_regular(fc: FlowComplex) -> bool:
    return Classifier(fc).regular().verdict


def is_extended_center(fc: FlowComplex, sid: str) -> bool:
    return Classifier(fc).extended_center(sid)


def is_generalized_recurrent(fc: FlowComplex) -> Verdict:
    return Classifier(fc).generalized_recurrent()


def extended_limit_cycles(fc: FlowComplex) -> list[LimitCycle]:
    return Classifier(fc).limit_cycles()


def dichotomy_check(fc: FlowComplex, xid: str) -> DichotomyCase:
    return Classifier(fc).dichotomy(xid)


def classification_report(fc: FlowComplex) -> ClassificationReport:
    return Classifier(fc).report()
