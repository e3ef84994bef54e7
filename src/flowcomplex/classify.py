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

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, wraps
from typing import Callable, ClassVar, Collection, Optional, TypeVar

from .model import (
    DENSE_KINDS,
    FAMILY_SEQUENCE,
    FlowComplex,
    LOCALLY_DENSE,
    ORBIT_REF,
    PERIODIC,
    PERIODIC_ANNULUS,
    POINT,
    PROPER,
    PointKind,
    PreconditionError,
    REGULAR_KINDS,
    SET_REF,
    SING_REF,
    require_complex,
    singularity_accumulation,
)
from .orbits import Expansion, member_closure, orbit_set_closure, require_side


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

    FIELDS: ClassVar[tuple[str, ...]]  # the field names in order, set below the class

    def as_dict(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name in self.FIELDS:
            v: Verdict = getattr(self, name)
            entry: dict = {"verdict": v.verdict}
            if v.witness is not None:
                entry["witness"] = {"ids": list(v.witness.ids), "rule": v.witness.rule}
            out[name] = entry
        return out


ClassificationReport.FIELDS = tuple(f.name for f in fields(ClassificationReport))


class DichotomyCase(str, Enum):
    NON_SADDLE_SINGULARITY_IN_CLOSURE = "NonSaddleSingularityInClosure"
    MEETS_LOCALLY_DENSE = "MeetsLocallyDense"
    VIOLATION = "Violation"


class CycleSide(str, Enum):
    ALPHA = "alpha"
    OMEGA = "omega"


@dataclass(frozen=True)
class LimitCycle:
    cycle: frozenset[str]
    witness: str
    side: CycleSide


T = TypeVar("T")


def _once(answer: Callable[["Classifier"], T]) -> Callable[["Classifier"], T]:
    """Compute a flow-level answer once per ``Classifier``, as a pure function of the
    immutable complex; the method stays a plain function, which the benchmark's tracer wraps."""
    name = answer.__name__

    @wraps(answer)
    def cached(self: "Classifier") -> T:
        if name not in self._answers:
            self._answers[name] = answer(self)
        return self._answers[name]

    return cached


_EMPTY: frozenset[str] = frozenset()


def _join(fwd: frozenset[str], bwd: frozenset[str]) -> frozenset[str]:
    """The union of two one-sided payloads: a side itself when it holds the other."""
    return fwd if bwd <= fwd else bwd if fwd <= bwd else fwd | bwd


def has_periodic_member_kinds(fc: FlowComplex, members: Collection[str]) -> bool:
    """The member kinds of a compact extended orbit that is more than a
    single point: proper orbits, periodic orbits, saddles, or family bundles
    of such, and not one point singularity alone."""
    if len(members) == 1 and fc.is_saddle(next(iter(members))):
        return False
    for mid in members:
        if fc.is_saddle(mid) or mid in fc.family_by_id:
            continue
        if mid in fc.sing_by_id:
            return False
        if fc.orbit_by_id[mid].kind not in (PERIODIC, PROPER):
            return False
    return True


def _re_approaches(fc: FlowComplex, xid: str, payload: frozenset[str]) -> bool:
    """Whether a one-sided extension brings ``xid`` back: its payload holds
    ``xid`` or a piece whose closure does."""
    return xid in payload or any(xid in fc.closure(oid) for oid in sorted(payload))


class Classifier:
    """Cached per-complex classification engine.

    Every per-point and per-flow question is a method; ask them all of one
    instance, as report assembly and the theorem harness do, so extended
    member sets, blocks and verdicts are computed once per complex; closures
    are kept by the complex itself (``FlowComplex.closure``).  Flow-level
    scans read sets built once per complex: the ids that are not recurrent
    on each side, the ``blocks`` of the ``leads`` (one id per distinct
    extended orbit), and the leads whose extended orbit is open or compact.
    The first failing lead is then the first failing id.
    """

    def __init__(self, fc: FlowComplex):
        require_complex(fc, "Classifier")
        self.fc = fc
        self._answers: dict[str, object] = {}

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
        require_side(forward)
        self.fc.require(xid)
        engine = self._generalized if generalized else self._plain
        return engine.payloads(forward).get(xid, _EMPTY)

    def members(self, xid: str) -> frozenset[str]:
        """The plain two-sided extended orbit of ``xid``."""
        self.fc.require(xid)
        return self._members.get(xid) or frozenset((xid,))

    @cached_property
    def _members(self) -> dict[str, frozenset[str]]:
        """``members`` of every id with a payload on some side, in id order:
        ``xid`` plus the join of its two payloads.  Each distinct pair of rows
        is joined once, and the ids inside a join share it.  Every other id is
        alone in its extended orbit."""
        fwd_table, bwd_table = self._plain.payloads(True), self._plain.payloads(False)
        joins: dict[tuple[frozenset[str], frozenset[str]], frozenset[str]] = {}
        out = {}
        for xid in sorted(fwd_table.keys() | bwd_table.keys()):
            fwd, bwd = fwd_table.get(xid), bwd_table.get(xid)
            if fwd is not None and bwd is not None:
                # shared rows keep their hashes, so the pair is a cheap key
                fwd = joins.get((fwd, bwd)) or joins.setdefault((fwd, bwd), _join(fwd, bwd))
            payload = fwd or bwd
            out[xid] = payload if xid in payload else payload | {xid}
        return out

    @cached_property
    def _lead_of_members(self) -> dict[frozenset[str], str]:
        """The lead of each distinct extended orbit with a payload: its least id."""
        first: dict[frozenset[str], str] = {}
        for xid, members in self._members.items():
            first.setdefault(members, xid)
        return first

    def _lead(self, xid: str) -> str:
        members = self._members.get(xid)
        if members is None:
            self.fc.require(xid)
            return xid
        return self._lead_of_members[members]

    @cached_property
    def leads(self) -> tuple[str, ...]:
        """One id per distinct two-sided extended orbit, the least id whose
        extended orbit it is, in ascending order.  An id alone in its extended
        orbit leads it: no other id's extended orbit is ``{xid}``."""
        alone = self.fc.all_ids.difference(self._members)
        return tuple(sorted(alone.union(self._lead_of_members.values())))

    def block(self, xid: str) -> frozenset[str]:
        """Closure of the two-sided extended orbit of ``xid``, with family ids
        standing for one generic member."""
        return self.blocks()[self._lead(xid)]

    @_once
    def blocks(self) -> dict[str, frozenset[str]]:
        """``block`` of every lead, in lead order.  A lead alone in its
        extended orbit has its own closure as its block (``member_closure``),
        unless that closure holds the samples of a saddle chain, whose rule
        ``orbit_set_closure`` then applies."""
        fc, members_of, chains = self.fc, self._members, self.fc.saddle_chains
        out = {}
        for xid in self.leads:
            members = members_of.get(xid)
            if members is None:
                closure = member_closure(fc, xid)
                if chains and any(closure.issuperset(schema.samples) for schema in chains):
                    closure = orbit_set_closure(fc, (xid,))
                out[xid] = closure
                continue
            block = orbit_set_closure(fc, members)
            # a closed member set is its own block: keep one copy
            out[xid] = members if block == members else block
        return out

    @cached_property
    def open_leads(self) -> frozenset[str]:
        """The leads whose extended orbit is not a closed set.  The block of a
        lead alone in its extended orbit holds the lead, so it is closed when
        its block has one id."""
        members_of = self._members
        out = []
        for xid, block in self.blocks().items():
            members = members_of.get(xid)
            if len(block) > 1 if members is None else not block <= members:
                out.append(xid)
        return frozenset(out)

    @cached_property
    def open_ids(self) -> tuple[str, ...]:
        """Every id whose extended orbit is not a closed set, sorted."""
        members_of, lead_of, opened = self._members, self._lead_of_members, self.open_leads
        return tuple(sorted(x for x in self.fc.all_ids if (lead_of[members_of[x]] if x in members_of else x) in opened))

    @cached_property
    def periodic_leads(self) -> frozenset[str]:
        """The leads whose extended orbit is compact: a closed member set of
        the kinds ``has_periodic_member_kinds`` admits."""
        fc, members_of, opened = self.fc, self._members, self.open_leads
        return frozenset(
            xid for xid in self.leads if xid not in opened and has_periodic_member_kinds(fc, members_of.get(xid) or (xid,))
        )

    def extension_closed(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is a closed set."""
        return self._lead(xid) not in self.open_leads

    def extended_periodic(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is compact."""
        return self._lead(xid) in self.periodic_leads

    # -- pointwise recurrence ----------------------------------------------

    @cached_property
    def _not_recurrent(self) -> tuple[frozenset[str], frozenset[str]]:
        """The ids that are not positively recurrent, and those that are not
        negatively recurrent, from the records: proper orbits, dense or
        exceptional classes with an end pinned to a limit on that side, and
        families other than periodic annuli.  Singular sets and periodic
        orbits come back on both sides."""
        fc = self.fc
        both = {f.id for f in fc.families if f.kind is not PERIODIC_ANNULUS}
        pos, neg = set(), set()
        for o in fc.orbit_classes:
            if o.kind is PROPER:
                both.add(o.id)
            elif o.kind is not PERIODIC:
                # dense classes come back on the side whose end is not pinned to a limit
                if o.omega is not None:
                    pos.add(o.id)
                if o.alpha is not None:
                    neg.add(o.id)
        return frozenset(both | pos), frozenset(both | neg)

    @cached_property
    def _scan_ids(self) -> tuple[str, ...]:
        """The ids an extended recurrence scan visits, sorted: those that are
        not recurrent on some side, other than families.  Such a family is a
        closed-extended-orbit region, which declares that each member is a
        compact extended orbit, whose points re-approach themselves."""
        pos, neg = self._not_recurrent
        return tuple(sorted((pos | neg).difference(self.fc.family_by_id)))

    def positively_recurrent(self, xid: str) -> bool:
        return self._recurrent(xid, forward=True)

    def negatively_recurrent(self, xid: str) -> bool:
        return self._recurrent(xid, forward=False)

    def _recurrent(self, xid: str, forward: bool) -> bool:
        require_side(forward)
        self.fc.require(xid)
        return xid not in self._not_recurrent[0 if forward else 1]

    def extended_recurrent_point(self, xid: str, forward: bool, generalized: bool = False) -> bool:
        if self._recurrent(xid, forward) or xid in self.fc.family_by_id:
            return True
        return _re_approaches(self.fc, xid, self.payload(xid, forward, generalized))

    # -- flow-level verdicts -------------------------------------------------

    @_once
    def recurrent_flow(self) -> Verdict:
        pos, neg = self._not_recurrent
        if pos or neg:
            return Verdict(False, Witness((min(pos | neg),), "non-recurrent-point"))
        return Verdict(True)

    def _extended_scan(self, engine: Expansion, kind: str) -> Verdict:
        """The first point that is not ``kind`` recurrent, positive side first,
        with payloads read from ``engine``'s tables."""
        fc = self.fc
        pos, neg = self._not_recurrent
        for xid in self._scan_ids:
            for forward, side, failing in ((True, "positively", pos), (False, "negatively", neg)):
                if xid in failing and not _re_approaches(fc, xid, engine.payloads(forward).get(xid, _EMPTY)):
                    return Verdict(False, Witness((xid,), f"not-{kind}-{side}-recurrent"))
        return Verdict(True)

    @_once
    def extended_recurrent(self) -> Verdict:
        return self._extended_scan(self._plain, "extended")

    @_once
    def generalized_recurrent(self) -> Verdict:
        """The generalized engine is built at the first point the scan visits,
        which checks the declarations.  When it is the plain engine, the
        verdict is the extended one with its rule renamed."""
        if not self._scan_ids:
            return Verdict(True)
        if self._generalized is not self._plain:
            return self._extended_scan(self._generalized, "generalized")
        verdict = self.extended_recurrent()
        if verdict.witness is None:
            return verdict
        rule = verdict.witness.rule.replace("not-extended-", "not-generalized-", 1)
        return Verdict(False, Witness(verdict.witness.ids, rule))

    @cached_property
    def routed(self) -> frozenset[str]:
        """Ids with a declared route into the closure of the recurrent part:
        the closure of a locally dense or exceptional class, a periodic
        annulus boundary, or a family-sequence target."""
        fc = self.fc
        out: set[str] = set()
        for o in fc.orbit_classes:
            if o.kind in DENSE_KINDS:
                out |= fc.closure(o.id)
        for fam in fc.families:
            if fam.kind is PERIODIC_ANNULUS:
                out |= fam.boundary0 | fam.boundary1
        for schema in fc.accumulation_schemas:
            if schema.kind is FAMILY_SEQUENCE:
                out |= schema.target
        return frozenset(out)

    @_once
    def nonwandering(self) -> Verdict:
        """Every proper non-closed class needs a declared route into the
        closure of the recurrent part; there is no benefit of the doubt."""
        for o in self.fc.orbit_classes:
            if o.kind is PROPER and o.id not in self.routed:
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
        fc, blocks, lead = self.fc, self.blocks(), self._lead
        # neighbouring families share a boundary: once it passes, it passes for each
        passed: set[frozenset[str]] = set()
        for fam in fc.families:
            for bset, shrinks in fam.boundaries():
                if shrinks or bset in passed:
                    continue
                for bid in sorted(bset):
                    sing = fc.sing_by_id.get(bid)
                    if sing is not None and sing.shape is not POINT:
                        return Witness((fam.id, bid), "continuum-in-limit")
                    if not bset <= blocks[lead(bid)]:
                        return Witness((fam.id, bid), "family-boundary-not-absorbed")
                passed.add(bset)
        for schema in fc.accumulation_schemas:
            # what every instance's block carries along persists in the limit;
            # a single declared instance gives no evidence of a shared part
            shared: frozenset[str] = frozenset()
            if len(schema.samples) >= 2:
                shared = blocks[lead(schema.samples[0])]
                for sid in schema.samples[1:]:
                    shared = shared & blocks[lead(sid)]
            limit = schema.target | shared
            for tid in sorted(schema.target):
                if not limit <= blocks[lead(tid)]:
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
            if s.shape is not POINT or s.kind not in REGULAR_KINDS:
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
        if sing is None or sing.shape is not POINT:
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
        return frozenset(o.id for o in self.fc.orbit_classes if o.kind is LOCALLY_DENSE)

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
        closure = self.block(xid)
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
                if ref.kind is SET_REF:
                    candidates.add(ref.resolved())
                elif ref.kind is ORBIT_REF:
                    target = fc.orbit_by_id.get(ref.ids[0])
                    if target is not None and target.kind is PERIODIC:
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
        if orb.kind is PERIODIC:
            continue
        if orb.kind is not PROPER:
            return False
        for ref, deg in ((orb.alpha, outdeg), (orb.omega, indeg)):
            if ref is None or ref.kind is not SING_REF:
                return False
            end = ref.ids[0]
            if end not in ids or not fc.is_saddle(end):
                return False
            deg[end] = deg.get(end, 0) + 1
    for sid in indeg:
        if indeg[sid] != outdeg[sid] or indeg[sid] < 1:
            return False
    return True


def classification_report(fc: FlowComplex) -> ClassificationReport:
    return Classifier(fc).report()
