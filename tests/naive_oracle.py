"""Independent brute-force implementations used as test oracles.

These re-derive the extension semantics directly from the data model and
recompute every round from scratch over all members, with no worklist and
no sharing with the library's optimized code paths.
"""

from __future__ import annotations

from typing import NamedTuple

from flowcomplex import DichotomyCase, Direction, FlowComplex, OrbitKind, RefKind, closure_of, orbit_set_closure


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
    blocks = {x: orbit_set_closure(fc, naive_extension(fc, x, Direction.BOTH).members) for x in ids}
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            if blocks[x] & blocks[y] and blocks[x] != blocks[y]:
                return False, (x, y)
    return True, None


def naive_dichotomy(fc: FlowComplex, xid: str) -> DichotomyCase:
    """The dichotomy case of a non-closed extended orbit by scans: every id of
    its closure in sorted order, then every locally dense class."""
    members = naive_extension(fc, xid, Direction.BOTH).members
    for sid in sorted(orbit_set_closure(fc, members)):
        sing = fc.sing_by_id.get(sid)
        if sing is not None and not sing.is_saddle:
            return DichotomyCase.NON_SADDLE_SINGULARITY_IN_CLOSURE
    for o in fc.orbit_classes:
        if o.kind is OrbitKind.LOCALLY_DENSE and (closure_of(fc, o.id) & members):
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
