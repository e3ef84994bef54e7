"""Deciders for the recurrence hierarchy and singularity character.

Every decision is a pure function of a flow complex that passes
``validate``: ``Classifier`` refuses any other.  Flow-level
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

from dataclasses import fields
from enum import Enum
from typing import ClassVar, Collection, Iterator, Optional

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
    cached_attribute,
    require_valid,
    singularity_accumulation,
    value_class,
)
from .orbits import Expansion, orbit_set_closure, require_side


@value_class
class Witness:
    """The ids that settle a negative verdict, and the rule that fired."""

    ids: tuple[str, ...]
    rule: str

    def describe(self) -> str:
        return f"{self.rule}: {', '.join(self.ids)}"


@value_class
class Verdict:
    """A flow-level answer; a negative one carries its witness."""

    verdict: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.verdict


@value_class
class ClassificationReport:
    """The seven flow-level verdicts of the recurrence hierarchy."""

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


@value_class
class LimitCycle:
    """A union of closed curves inside an extended orbit that is the ``side``
    limit of ``witness``, an orbit class outside it."""

    cycle: frozenset[str]
    witness: str
    side: CycleSide


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


_HOLDS = Verdict(True)


def _verdict(witness: Optional[Witness]) -> Verdict:
    """The negative verdict that ``witness`` settles, or the one positive verdict."""
    return _HOLDS if witness is None else Verdict(False, witness)


def _scan_witness(failure: Optional[tuple[str, str]], kind: str) -> Optional[Witness]:
    """The witness of a ``kind`` recurrence scan's first failing point and side."""
    return None if failure is None else Witness(failure[:1], f"not-{kind}-{failure[1]}-recurrent")


class Classifier:
    """Cached per-complex classification engine.

    Every per-point and per-flow question is a method; ask them all of one
    instance, as report assembly and the theorem harness do.  Each fact of
    the complex, such as the extended member sets, the blocks and the
    witness behind each flow-level verdict, is kept once per instance
    through ``cached_attribute``, and each verdict is built from its kept
    witness; closures are kept by the complex itself (``FlowComplex.closure``).
    Flow-level scans read sets built once per complex: the ids that are not
    recurrent on each side, the ``blocks`` of the ``leads`` (one id per
    distinct extended orbit), and the leads whose extended orbit is open;
    the compact ones are read in lead order (``iter_periodic_leads``).  The
    first failing lead is then the first failing id.
    """

    def __init__(self, fc: FlowComplex):
        require_valid(fc, "Classifier")
        self.fc = fc

    # -- cached primitives -------------------------------------------------

    @cached_attribute
    def _plain(self) -> Expansion:
        return Expansion.plain(self.fc)

    @cached_attribute
    def _generalized(self) -> Expansion:
        """The generalized engine, or the plain one itself when no declared
        set is admitted: the two then have the same expansion sets.  With
        none declared there is nothing to list or build."""
        if not self.fc.saddle_set_decls:
            return self._plain
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

    @cached_attribute
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

    @cached_attribute
    def _lead_of_members(self) -> dict[frozenset[str], str]:
        """The lead of each distinct extended orbit with a payload: its least id."""
        first: dict[frozenset[str], str] = {}
        for xid, members in self._members.items():
            first.setdefault(members, xid)
        return first

    def _lead(self, xid: str) -> str:
        members = self._members.get(xid)  # callers pass a hashable id
        if members is None:
            self.fc.require(xid)
            return xid
        return self._lead_of_members[members]

    @cached_attribute
    def leads(self) -> tuple[str, ...]:
        """One id per distinct two-sided extended orbit, the least id whose
        extended orbit it is, in ascending order.  An id alone in its extended
        orbit leads it: no other id's extended orbit is ``{xid}``."""
        members_of = self._members
        if not members_of:
            return self.fc.sorted_ids
        leads = set(self._lead_of_members.values())
        return tuple([x for x in self.fc.sorted_ids if x not in members_of or x in leads])

    def block(self, xid: str) -> frozenset[str]:
        """Closure of the two-sided extended orbit of ``xid``, with family ids
        standing for one generic member."""
        self.fc.require(xid)
        return self.blocks()[self._lead(xid)]

    def blocks(self) -> dict[str, frozenset[str]]:
        """``block`` of every lead, in lead order: the same kept mapping on every call."""
        return self._blocks

    @cached_attribute
    def _blocks(self) -> dict[str, frozenset[str]]:
        """A lead alone in its extended orbit has its own closure as its block
        (``member_closure``), unless that closure holds the samples of a
        saddle chain, whose rule ``orbit_set_closure`` then applies."""
        fc, members_of, chains = self.fc, self._members, self.fc.saddle_chains
        families = fc.family_by_id
        out = {}
        for xid in self.leads:
            members = members_of.get(xid)
            if members is None:
                # member_closure without its guards: a family stands for one closed member
                closure = frozenset((xid,)) if xid in families else fc.closure(xid)
                if chains and any(closure.issuperset(schema.samples) for schema in chains):
                    closure = orbit_set_closure(fc, (xid,))
                out[xid] = closure
                continue
            block = orbit_set_closure(fc, members)
            # a closed member set is its own block: keep one copy
            out[xid] = members if block == members else block
        return out

    @cached_attribute
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

    @cached_attribute
    def open_ids(self) -> tuple[str, ...]:
        """Every id whose extended orbit is not a closed set, sorted."""
        members_of, lead_of, opened = self._members, self._lead_of_members, self.open_leads
        return tuple([x for x in self.fc.sorted_ids if (lead_of[members_of[x]] if x in members_of else x) in opened])

    def _compact(self, lead: str) -> bool:
        """Whether the extended orbit that ``lead`` leads is compact: a closed
        member set of the kinds ``has_periodic_member_kinds`` admits."""
        return lead not in self.open_leads and has_periodic_member_kinds(self.fc, self._members.get(lead) or (lead,))

    def iter_periodic_leads(self) -> Iterator[str]:
        """The leads whose extended orbit is compact, in lead order, each
        judged only when it is read."""
        return filter(self._compact, self.leads)

    def extension_closed(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is a closed set."""
        self.fc.require(xid)
        return self._lead(xid) not in self.open_leads

    def extended_periodic(self, xid: str) -> bool:
        """Whether the two-sided extended orbit of ``xid`` is compact."""
        self.fc.require(xid)
        return self._compact(self._lead(xid))

    # -- pointwise recurrence ----------------------------------------------

    @cached_attribute
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

    @cached_attribute
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

    def recurrent_flow(self) -> Verdict:
        return _verdict(self._non_recurrent_point)

    @cached_attribute
    def _non_recurrent_point(self) -> Optional[Witness]:
        """The least id that is not recurrent on some side."""
        pos, neg = self._not_recurrent
        return Witness((min(pos | neg),), "non-recurrent-point") if pos or neg else None

    def _extended_scan(self, engine: Expansion) -> Optional[tuple[str, str]]:
        """The first point and side ("positively" first, then "negatively")
        that ``engine``'s payloads do not bring back, or None.  Each side's
        table is read once, at the first id that needs it."""
        fc = self.fc
        pos, neg = self._not_recurrent
        tables: dict[bool, dict[str, frozenset[str]]] = {}
        for xid in self._scan_ids:
            for forward, side, failing in ((True, "positively", pos), (False, "negatively", neg)):
                if xid in failing:
                    table = tables.get(forward)
                    if table is None:
                        table = tables[forward] = engine.payloads(forward)
                    if not _re_approaches(fc, xid, table.get(xid, _EMPTY)):
                        return xid, side
        return None

    @cached_attribute
    def _plain_failure(self) -> Optional[tuple[str, str]]:
        """``_extended_scan`` of the plain engine, kept for both verdicts that read it."""
        return self._extended_scan(self._plain)

    @cached_attribute
    def _generalized_failure(self) -> Optional[tuple[str, str]]:
        """``_extended_scan`` of the generalized engine.  With no point to scan
        no engine is built.  When the generalized engine is the plain one, the
        plain engine's kept scan answers."""
        if not self._scan_ids:
            return None
        engine = self._generalized
        return self._plain_failure if engine is self._plain else self._extended_scan(engine)

    def extended_recurrent(self) -> Verdict:
        return _verdict(_scan_witness(self._plain_failure, "extended"))

    def generalized_recurrent(self) -> Verdict:
        return _verdict(_scan_witness(self._generalized_failure, "generalized"))

    @cached_attribute
    def wandering(self) -> tuple[str, ...]:
        """The proper classes, in id order, with no declared route into the
        closure of the recurrent part: a locally dense or exceptional class's
        closure, a periodic annulus boundary, or a family-sequence target."""
        fc = self.fc
        proper = [o.id for o in fc.orbit_classes if o.kind is PROPER]
        if not proper:  # the routes, and the closures they read, are not needed
            return ()
        routed: set[str] = set()
        for o in fc.orbit_classes:
            if o.kind in DENSE_KINDS:
                routed |= fc.closure(o.id)
        for fam in fc.families:
            if fam.kind is PERIODIC_ANNULUS:
                routed.update(fam.boundary0, fam.boundary1)
        for schema in fc.accumulation_schemas:
            if schema.kind is FAMILY_SEQUENCE:
                routed |= schema.target
        return tuple([oid for oid in proper if oid not in routed])

    def nonwandering(self) -> Verdict:
        """Every proper non-closed class needs a declared route into the
        closure of the recurrent part; there is no benefit of the doubt."""
        return _verdict(Witness(self.wandering[:1], "wandering-proper-class") if self.wandering else None)

    def extended_pap(self) -> Verdict:
        """The closures of extended orbits must pairwise coincide or be disjoint."""
        return _verdict(self._block_overlap)

    @cached_attribute
    def _block_overlap(self) -> Optional[Witness]:
        """The first pair of overlapping blocks, read through ``blocks``.

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
                return Witness((x, y), "block-overlap")
        return None

    @cached_attribute
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
            limit = schema.target
            if len(schema.samples) >= 2:
                limit = limit.union(frozenset.intersection(*(blocks[lead(sid)] for sid in schema.samples)))
            for tid in sorted(schema.target):
                if not limit <= blocks[lead(tid)]:
                    return Witness((schema.id, tid), "schema-limit-not-absorbed")
        return None

    def extended_r_closed(self) -> Verdict:
        """p.a.p. first, then the kept absorption witness."""
        return _verdict(self.extended_pap().witness or self._usc_witness)

    def regular(self) -> Verdict:
        return _verdict(self._irregularity)

    @cached_attribute
    def _irregularity(self) -> Optional[Witness]:
        """The first singular set that is not a regular point, or else the
        first declared accumulation of singularities."""
        for s in self.fc.singular_sets:
            if s.shape is not POINT or s.kind not in REGULAR_KINDS:
                return Witness((s.id,), "degenerate-singularity")
        schema = singularity_accumulation(self.fc)
        return None if schema is None else Witness((schema.id,), "singularity-accumulation")

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
        self.fc.require(sid)
        sing = self.fc.sing_by_id.get(sid)
        if sing is None or sing.shape is not POINT:
            raise PreconditionError(f"{sid!r} is not a point singularity")
        return sing.kind is PointKind.CENTER or sid in self._shrink_points

    @cached_attribute
    def _shrink_points(self) -> frozenset[str]:
        """The ids that a family shrinks onto: its shrinking boundaries of one id."""
        return frozenset(min(b) for fam in self.fc.families for b, shrinks in fam.boundaries() if shrinks and len(b) == 1)

    @cached_attribute
    def _non_saddle_singular(self) -> frozenset[str]:
        return frozenset(s.id for s in self.fc.singular_sets if not s.is_saddle)

    @cached_attribute
    def dense_ids(self) -> frozenset[str]:
        """The locally dense classes."""
        return frozenset(o.id for o in self.fc.orbit_classes if o.kind is LOCALLY_DENSE)

    @cached_attribute
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
                elif ref.kind is ORBIT_REF and fc.orbit_by_id[ref.ids[0]].kind is PERIODIC:
                    candidates.add(frozenset(ref.ids))
        results: list[LimitCycle] = []
        for gamma in sorted(candidates, key=sorted):
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
            if ref.kind is not SING_REF:
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
