"""Independent brute-force implementations used as test oracles.

These re-derive the extension semantics directly from the data model and
recompute every round from scratch over all members, with no worklist and
no sharing with the library's optimized code paths.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from flowcomplex import (
    Classifier,
    DichotomyCase,
    Direction,
    FamilyKind,
    FlowComplex,
    OrbitKind,
    RefKind,
    SchemaKind,
    Verdict,
    Witness,
)
from flowcomplex import model, orbits


def naive_closure(fc: FlowComplex, xid: str) -> frozenset[str]:
    """The closure of one piece, as ``closure_of``'s docstring states it, with
    every round recomputed over the whole set until nothing changes: a
    proper orbit adds the ids of its end limits, a dense or exceptional class
    those and its declared closure, a family both of its boundaries; a
    ``set:`` limit adds each id it names, and singular sets and periodic
    orbits add nothing."""
    out = {xid}
    while True:
        grown = set(out)
        for yid in out:
            fam = fc.family_by_id.get(yid)
            if fam is not None:
                grown |= fam.boundary0 | fam.boundary1
            orb = fc.orbit_by_id.get(yid)
            if orb is None or orb.kind is OrbitKind.PERIODIC:
                continue
            for ref in (orb.alpha, orb.omega):
                if ref is not None:
                    grown |= ref.resolved()
            if orb.kind is not OrbitKind.PROPER:
                grown |= orb.closure_decl or frozenset()
        if grown == out:
            return frozenset(out)
        out = grown


def _wings(fc: FlowComplex, forward: bool) -> dict[str, set[str]]:
    """The classes leaving each single singularity on the departure side, from
    one scan of every class."""
    out: dict[str, set[str]] = {}
    for o in fc.orbit_classes:
        ref = o.alpha if forward else o.omega
        if ref is not None and ref.kind is RefKind.SING and len(ref.ids) == 1:
            out.setdefault(ref.ids[0], set()).add(o.id)
    return out


def _limit_saddle(fc: FlowComplex, xid: str, forward: bool) -> str | None:
    if xid in fc.sing_by_id:
        return xid if fc.sing_by_id[xid].is_saddle else None
    orb = fc.orbit_by_id.get(xid)
    if orb is None:
        return None
    ref = orb.omega if forward else orb.alpha
    if ref is not None and ref.kind is RefKind.SING and fc.is_saddle(ref.ids[0]):
        return ref.ids[0]
    return None


class NaiveExtension(NamedTuple):
    members: frozenset[str]
    self_readded: bool
    added_round: dict[str, int]  # the first round whose recompute holds each member
    depth: int  # the number of rounds that grew the member set


def _one_sided(fc: FlowComplex, start: str, forward: bool) -> NaiveExtension:
    wings = _wings(fc, forward)
    members = {start}
    added_round = {start: 0}
    self_readded = False
    rnd = 0
    while True:
        payload: set[str] = set()
        for oid in members:
            sid = _limit_saddle(fc, oid, forward)
            if sid is not None:
                payload |= {sid} | wings.get(sid, set())
        if start in payload:
            self_readded = True
        grown = members | payload
        if grown == members:
            return NaiveExtension(frozenset(members), self_readded, added_round, rnd)
        rnd += 1
        for mid in grown - members:
            added_round[mid] = rnd
        members = grown


def naive_extension(fc: FlowComplex, start: str, direction: Direction) -> NaiveExtension:
    """Full-recompute fixpoint with provenance; the two-sided run keeps each
    member's earlier first round and the deeper side's depth."""
    if direction is Direction.FORWARD:
        return _one_sided(fc, start, True)
    if direction is Direction.BACKWARD:
        return _one_sided(fc, start, False)
    fwd = _one_sided(fc, start, True)
    bwd = _one_sided(fc, start, False)
    members = fwd.members | bwd.members
    added = {mid: min(run.added_round[mid] for run in (fwd, bwd) if mid in run.members) for mid in members}
    return NaiveExtension(members, fwd.self_readded or bwd.self_readded, added, max(fwd.depth, bwd.depth))


def naive_extended_orbit(fc: FlowComplex, start: str, direction: Direction) -> tuple[frozenset[str], bool]:
    """Full-recompute fixpoint; returns (members, self_readded)."""
    run = naive_extension(fc, start, direction)
    return run.members, run.self_readded


def naive_extended_pap(fc: FlowComplex) -> tuple[bool, tuple[str, str] | None]:
    """Pairwise decomposition check: the closures of any two two-sided
    extended orbits coincide or are disjoint.  Returns the verdict and the
    first overlapping pair of ids in sorted order."""
    ids = sorted(fc.all_ids)
    blocks = {x: naive_orbit_set_closure(fc, naive_extension(fc, x, Direction.BOTH).members) for x in ids}
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            if blocks[x] & blocks[y] and blocks[x] != blocks[y]:
                return False, (x, y)
    return True, None


def naive_dichotomy(fc: FlowComplex, xid: str) -> DichotomyCase:
    """The dichotomy case of a non-closed extended orbit by scans: every id of
    its closure in sorted order, then every locally dense class."""
    members = naive_extension(fc, xid, Direction.BOTH).members
    for sid in sorted(naive_orbit_set_closure(fc, members)):
        sing = fc.sing_by_id.get(sid)
        if sing is not None and not sing.is_saddle:
            return DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE
    for o in fc.orbit_classes:
        if o.kind is OrbitKind.LOCALLY_DENSE and (naive_closure(fc, o.id) & members):
            return DichotomyCase.MEETS_LOCALLY_DENSE
    return DichotomyCase.VIOLATION


def expand_once(fc: FlowComplex, members: frozenset[str], forward: bool) -> frozenset[str]:
    """One expansion round applied to an arbitrary member set."""
    wings = _wings(fc, forward)
    payload: set[str] = set(members)
    for oid in members:
        sid = _limit_saddle(fc, oid, forward)
        if sid is not None:
            payload |= {sid} | wings.get(sid, set())
    return frozenset(payload)


def reachability_members(fc: FlowComplex, start: str, forward: bool) -> frozenset[str]:
    """Reachable set in the bipartite saddle/separatrix digraph.

    Nodes are saddles and orbit classes; an orbit points to the saddle it
    limits onto, and a saddle points to every class on its outgoing side.
    """
    edges: dict[str, set[str]] = {}
    for o in fc.orbit_classes:
        into = o.omega if forward else o.alpha
        if into is not None and into.kind is RefKind.SING and fc.is_saddle(into.ids[0]):
            edges.setdefault(o.id, set()).add(into.ids[0])
        outof = o.alpha if forward else o.omega
        if outof is not None and outof.kind is RefKind.SING and fc.is_saddle(outof.ids[0]):
            edges.setdefault(outof.ids[0], set()).add(o.id)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


# -- per-id scans ---------------------------------------------------------------
#
# The flow-level scans as they were written before the classifier decided
# them by set algebra: each id asked one at a time, in sorted order.  Member
# sets and one-sided payloads are read through a ``Classifier`` (its tables
# are checked against ``naive_extension`` elsewhere), so these run at 10^4
# ids; pass one that the classifier under test does not share.


def naive_recurrent(fc: FlowComplex, xid: str, forward: bool) -> bool:
    """Pointwise recurrence of one piece, from its kind."""
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
    return (orb.omega if forward else orb.alpha) is None


def naive_recurrent_flow(fc: FlowComplex) -> Verdict:
    for xid in sorted(fc.all_ids):
        if not (naive_recurrent(fc, xid, True) and naive_recurrent(fc, xid, False)):
            return Verdict(False, Witness((xid,), "non-recurrent-point"))
    return Verdict(True)


def naive_extended_recurrent(ref: Classifier, generalized: bool) -> Verdict:
    """The first id and side, positive side first, that is not recurrent and
    whose one-sided extension brings it back neither itself nor through the
    closure of a piece it adds."""
    fc = ref.fc
    kind = "generalized" if generalized else "extended"
    for xid in sorted(fc.all_ids):
        for forward, side in ((True, "positively"), (False, "negatively")):
            if naive_recurrent(fc, xid, forward):
                continue
            fam = fc.family_by_id.get(xid)
            if fam is not None:
                if fam.kind is FamilyKind.CLOSED_EXTENDED_REGION:
                    continue
            else:
                payload = ref.payload(xid, forward, generalized)
                if xid in payload or any(xid in naive_closure(fc, oid) for oid in payload):
                    continue
            return Verdict(False, Witness((xid,), f"not-{kind}-{side}-recurrent"))
    return Verdict(True)


def naive_orbit_set_closure(fc: FlowComplex, members: Iterable[str]) -> frozenset[str]:
    """The closure of a member set: each member's own closure (a family stands
    for one closed member), then every declared saddle chain whose samples
    lie inside pulls in the closure of its target, until nothing changes."""
    def member(mid: str) -> frozenset[str]:
        return frozenset({mid}) if mid in fc.family_by_id else naive_closure(fc, mid)

    out: set[str] = set()
    for mid in members:
        out |= member(mid)
    changed = True
    while changed:
        changed = False
        for schema in fc.accumulation_schemas:
            if schema.kind is SchemaKind.SADDLE_CHAIN and set(schema.samples) <= out and not schema.target <= out:
                for tid in schema.target:
                    out |= member(tid)
                changed = True
    return frozenset(out)


def naive_blocks(ref: Classifier) -> dict[str, frozenset[str]]:
    """The block of each distinct extended orbit, keyed by its least id, in id
    order."""
    leads: dict[frozenset[str], str] = {}
    for xid in sorted(ref.fc.all_ids):
        leads.setdefault(ref.members(xid), xid)
    return {xid: naive_orbit_set_closure(ref.fc, members) for members, xid in leads.items()}


def _compact_member_kinds(fc: FlowComplex, members: frozenset[str]) -> bool:
    """Each member is a proper orbit, a periodic orbit, a saddle or a family
    (a bundle of closed members), and the set is not one singularity alone."""

    def admitted(mid: str) -> bool:
        if mid in fc.sing_by_id:
            return fc.sing_by_id[mid].is_saddle
        return mid in fc.family_by_id or fc.orbit_by_id[mid].kind in (OrbitKind.PERIODIC, OrbitKind.PROPER)

    return all(admitted(mid) for mid in members) and not (len(members) == 1 and members <= fc.sing_by_id.keys())


def naive_periodic_leads(ref: Classifier) -> list[str]:
    """The leads, in id order, whose extended orbit is compact."""
    return [
        xid
        for xid, block in naive_blocks(ref).items()
        if _compact_member_kinds(ref.fc, ref.members(xid)) and block <= ref.members(xid)
    ]


def naive_open_ids(ref: Classifier) -> list[str]:
    """Every id, in sorted order, whose extended orbit is not closed; each
    distinct member set is closed once."""
    closed: dict[frozenset[str], bool] = {}
    out = []
    for xid in sorted(ref.fc.all_ids):
        members = ref.members(xid)
        if members not in closed:
            closed[members] = naive_orbit_set_closure(ref.fc, members) <= members
        if not closed[members]:
            out.append(xid)
    return out


def naive_open_extension_missing_dense_side(ref: Classifier) -> Optional[str]:
    """The first id with a non-closed extended orbit, not locally dense itself,
    one of whose one-sided payloads holds no locally dense class."""
    dense = {o.id for o in ref.fc.orbit_classes if o.kind is OrbitKind.LOCALLY_DENSE}
    for xid in naive_open_ids(ref):
        if xid not in dense and any(ref.payload(xid, forward).isdisjoint(dense) for forward in (True, False)):
            return xid
    return None


def naive_saddle_set(fc: FlowComplex, members: Iterable[str]) -> orbits.SaddleSetVerdict:
    """``is_saddle_set`` by a scan of every id outside the set, in sorted
    order, with the library's own accumulation and leaving tests: the first id
    that accumulates on the set and leaves it is the witness."""
    mset = frozenset(members)
    orbits._require_invariant_closed(fc, mset)
    for wid in sorted(fc.all_ids - mset):
        if model._accumulates(fc, wid, mset) and model._leaves(fc, wid, mset):
            return orbits.SaddleSetVerdict(True, wid)
    return orbits.SaddleSetVerdict(False, None)
