"""Extended orbits: the saddle-closure fixpoint and its generalizations.

The forward extension of a seed repeatedly adjoins, for every member whose
omega limit is a single saddle, that saddle together with its unstable set
(all classes emanating from it).  The backward extension mirrors this with
alpha limits and stable sets.  A two-sided extension is the union of the
two one-sided fixpoints, not a joint closure; the membership relation is
reflexive and symmetric but need not be transitive.

Generalized extensions replace single saddles by admitted isolated saddle
sets, expanding whenever a member's limit set is contained in such a set.
Plain extension is generalized extension over the singleton saddle sets:
both run the one fixpoint in ``Expansion``, which reads what a set adjoins
from the complex's lazily built limit index (``FlowComplex.classes_by_limit``).
``Expansion.orbit`` runs that fixpoint per seed and keeps each member's
round, for the ``orbit`` command; ``Classifier`` reads members alone from
``Expansion.payloads``, which fills every id's one-sided payload at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .model import (
    DENSE_KINDS,
    FAMILY_SEQUENCE,
    FlowComplex,
    PERIODIC,
    PERIODIC_ANNULUS,
    PreconditionError,
    SINGULARITY_SEQUENCE,
    require_complex,
)


class InvalidSaddleSetError(PreconditionError):
    """A saddle set fails the admission conditions; one that is not
    invariant-closed fails before the saddle-set tests can run."""


class Direction(str, Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"
    BOTH = "both"

    @classmethod
    def _missing_(cls, value: object) -> "Direction":
        raise PreconditionError(f"{value!r} is not a direction: use fwd, bwd or both")


SEED_ROUND = 0


def require_side(forward: object) -> None:
    """A one-sided query names its side by a bool: any other value, such as
    the direction name "bwd", would be read by its truth and answer for the
    forward side."""
    if not isinstance(forward, bool):
        raise PreconditionError(f"forward must be a bool, not {forward!r}")


@dataclass(frozen=True)
class ExtendedOrbitSet:
    """Result of the extension fixpoint from a single seed.

    ``added_round`` maps each member to the expansion round that first added
    it (0 for the seed).  ``self_readded`` records whether some expansion
    payload contained the seed again; points strictly earlier on the seed's
    own orbit then re-approach it, which is what the recurrence classifiers
    consume.  ``depth`` counts the rounds that added at least one new member.
    """

    start: str
    direction: Direction
    members: frozenset[str]
    added_round: Mapping[str, int]
    depth: int
    self_readded: bool


def _classes_limiting_into(fc: FlowComplex, fset: frozenset[str], side: str) -> list[str]:
    """Sorted orbit classes whose ``side`` ("alpha" or "omega") limit lies inside ``fset``."""
    return sorted(
        oid for lid in fset for limit, oid in fc.classes_by_limit.get((side, lid), ()) if limit <= fset
    )


def unstable_set(fc: FlowComplex, sid: str) -> frozenset[str]:
    """All orbit classes whose alpha limit is exactly the saddle ``sid``."""
    fc.require(sid)
    if not fc.is_saddle(sid):
        raise PreconditionError(f"{sid!r} is not a saddle")
    return frozenset(_classes_limiting_into(fc, frozenset({sid}), "alpha"))


def stable_set(fc: FlowComplex, sid: str) -> frozenset[str]:
    """All orbit classes whose omega limit is exactly the saddle ``sid``."""
    fc.require(sid)
    if not fc.is_saddle(sid):
        raise PreconditionError(f"{sid!r} is not a saddle")
    return frozenset(_classes_limiting_into(fc, frozenset({sid}), "omega"))


class Expansion:
    """The extension fixpoint over a fixed, admitted list of expansion sets.

    A member fires every set that contains its limit on the approach side (a
    singular set is its own limit, which lets extension sweep through the
    separatrices of a saddle taken as a seed).  A fired set adjoins itself
    and every class whose departure-side limit lies inside it; what each set
    adjoins is computed once per instance, from the complex's limit index.
    """

    def __init__(self, fc: FlowComplex, sets: Sequence[frozenset[str]]):
        require_complex(fc, "Expansion")
        self.fc = fc
        self.sets = sets
        self._holding: dict[str, list[int]] = {}
        for i, fset in enumerate(sets):
            for mid in fset:
                self._holding.setdefault(mid, []).append(i)
        self._adjoined: dict[tuple[int, bool], list[str]] = {}
        self._payloads: dict[bool, dict[str, frozenset[str]]] = {}

    @classmethod
    def plain(cls, fc: FlowComplex) -> "Expansion":
        """Plain extension: every saddle is its own expansion set."""
        require_complex(fc, "Expansion")
        return cls(fc, [frozenset({sid}) for sid in sorted(fc.saddle_ids)])

    @classmethod
    def admit(cls, fc: FlowComplex, sets: Iterable[Iterable[str]]) -> "Expansion":
        """The admission rule for expansion sets given as id collections: a
        single saddle passes (the degenerate case the generalization
        extends), and any other set must pass ``is_saddle_set`` and
        ``is_isolated``.  Declared sets are admitted through ``generalized``."""
        require_complex(fc, "Expansion")
        admitted: list[frozenset[str]] = []
        if not isinstance(sets, Iterable):
            raise InvalidSaddleSetError(f"{sets!r} is not a collection of id collections")
        for item in sets:
            if isinstance(item, str):
                raise InvalidSaddleSetError(
                    f"{item!r} is not an id collection: declared sets are admitted through Expansion.generalized"
                )
            try:
                mset = frozenset(item)
            except TypeError:
                raise InvalidSaddleSetError(f"{item!r} is not an id collection") from None
            if not _single_saddle(fc, mset):
                if not is_saddle_set(fc, mset).verdict:
                    raise InvalidSaddleSetError(f"{sorted(mset)} fails the saddle-set criterion")
                if not is_isolated(fc, mset):
                    raise InvalidSaddleSetError(f"{sorted(mset)} is not isolated from minimal sets")
            admitted.append(mset)
        return cls(fc, sorted(admitted, key=sorted))

    @classmethod
    def generalized(cls, fc: FlowComplex) -> "Expansion":
        """Generalized extension over ``generalized_saddle_sets(fc)``, in the
        set order ``admit`` gives; those sets are checked where they are
        collected, so they are not admitted a second time."""
        require_complex(fc, "Expansion")
        return cls(fc, sorted(generalized_saddle_sets(fc), key=sorted))

    def _adjoins(self, i: int, forward: bool) -> list[str]:
        key = (i, forward)
        found = self._adjoined.get(key)
        if found is None:
            fset = self.sets[i]
            departure = "alpha" if forward else "omega"
            found = self._adjoined[key] = sorted(fset) + _classes_limiting_into(self.fc, fset, departure)
        return found

    def _fired(self, xid: str, forward: bool) -> list[int]:
        """The sets, in ascending order, that hold the approach-side limit of ``xid``."""
        fc = self.fc
        if xid in fc.sing_by_id:
            limits = frozenset({xid})
        else:
            orb = fc.orbit_by_id.get(xid)
            ref = None if orb is None else (orb.omega if forward else orb.alpha)
            if ref is None:
                return []
            limits = ref.resolved()
        fired = []
        # a set holding every limit id holds any one of them
        for i in self._holding.get(next(iter(limits), ""), ()):
            if limits <= self.sets[i]:
                fired.append(i)
        return fired

    def _one_sided(self, start: str, forward: bool) -> ExtendedOrbitSet:
        members: set[str] = {start}
        added_round: dict[str, int] = {start: SEED_ROUND}
        self_readded = False
        depth = 0
        frontier = [start]
        rnd = 0
        while frontier:
            rnd += 1
            payload: list[str] = []
            for oid in sorted(frontier):
                for i in self._fired(oid, forward):
                    payload.extend(self._adjoins(i, forward))
            if start in payload:
                self_readded = True
            fresh = []
            for pid in payload:
                if pid not in members:
                    members.add(pid)
                    added_round[pid] = rnd
                    fresh.append(pid)
            if fresh:
                depth = rnd
            frontier = fresh
        return ExtendedOrbitSet(
            start=start,
            direction=Direction.FORWARD if forward else Direction.BACKWARD,
            members=frozenset(members),
            added_round=added_round,
            depth=depth,
            self_readded=self_readded,
        )

    def orbit(self, start: str, direction: Direction = Direction.BOTH) -> ExtendedOrbitSet:
        """Least fixpoint from ``start``.  The two-sided result is the union of
        the forward and backward fixpoints, each member added in the earlier
        of its two rounds (backward entries first, in insertion order)."""
        self.fc.require(start)
        direction = Direction(direction)
        if direction is not Direction.BOTH:
            return self._one_sided(start, direction is Direction.FORWARD)
        fwd, bwd = self._one_sided(start, True), self._one_sided(start, False)
        added: dict[str, int] = dict(bwd.added_round)
        for oid, rnd in fwd.added_round.items():
            added[oid] = min(rnd, added.get(oid, rnd))
        return ExtendedOrbitSet(
            start=start,
            direction=Direction.BOTH,
            members=fwd.members | bwd.members,
            added_round=added,
            depth=max(fwd.depth, bwd.depth),
            self_readded=fwd.self_readded or bwd.self_readded,
        )

    def _firing_map(self, forward: bool) -> dict[str, list[int]]:
        """``_fired(xid, forward)`` of every id that fires a set, in one sweep of
        the sets: its singular members and the classes limiting into it."""
        fc = self.fc
        approach = "omega" if forward else "alpha"
        fired: dict[str, list[int]] = {}
        for i, fset in enumerate(self.sets):
            for lid in fset:
                if lid in fc.sing_by_id:
                    fired.setdefault(lid, []).append(i)
                # each class is listed under the least id of its limit only
                for limit, oid in fc.classes_by_limit.get((approach, lid), ()):
                    if limit <= fset:
                        fired.setdefault(oid, []).append(i)
        return fired

    def payloads(self, forward: bool) -> dict[str, frozenset[str]]:
        """Every firing id's one-sided payload: all that the sets it fires
        reach, where set ``i`` reaches ``j`` when an id ``i`` adjoins fires ``j``.
        Built once per side from one condensation of that digraph, sinks
        first; ids that fire one component share its row."""
        require_side(forward)
        if forward in self._payloads or not self.sets:
            return self._payloads.get(forward, {})
        fired = self._firing_map(forward)
        succ = [
            list(dict.fromkeys(j for oid in self._adjoins(i, forward) for j in fired.get(oid, ())))
            for i in range(len(self.sets))
        ]
        comp_of = [-1] * len(self.sets)
        rows: list[frozenset[str]] = []
        for c, comp in enumerate(_strong_components(succ)):
            for i in comp:
                comp_of[i] = c
            # each component below once, however many edges lead to it
            below = {comp_of[j] for i in comp for j in succ[i]} - {c}
            adjoined = (self._adjoins(i, forward) for i in comp)
            rows.append(frozenset().union(*adjoined, *(rows[d] for d in below)))
        found = self._payloads[forward] = {
            xid: rows[comp_of[sets[0]]] if len(sets) == 1 else frozenset().union(*(rows[comp_of[i]] for i in sets))
            for xid, sets in fired.items()
        }
        return found


def _strong_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph ``i -> succ[i]``, each
    listed after every component it reaches (Tarjan 1972, iterative)."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            if k < len(succ[v]):
                work[-1] = (v, k + 1)
                w = succ[v][k]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def extended_orbit(fc: FlowComplex, start: str, direction: Direction = Direction.BOTH) -> ExtendedOrbitSet:
    """Least fixpoint of the saddle expansion rule from ``start``: the
    generalized extension over the singleton saddle sets."""
    return Expansion.plain(fc).orbit(start, direction)


def member_closure(fc: FlowComplex, xid: str) -> frozenset[str]:
    """Closure of ``xid`` viewed as one generic member of its bundle.

    A family id inside an extended orbit stands for a single generic member
    (a periodic orbit or one closed extended orbit), which is already
    closed; the region closure of the family would wrongly glue the whole
    bundle into one block.
    """
    if xid in fc.family_by_id:
        return frozenset({xid})
    return fc.closure(xid)


def orbit_set_closure(fc: FlowComplex, members: Iterable[str]) -> frozenset[str]:
    """Closure of an extended-orbit member set, aware of declared saddle chains.

    If the set contains the sample pattern of a saddle chain, the real
    object continues down the infinite chain, so its closure picks up the
    declared target.
    """
    out = frozenset().union(*(member_closure(fc, mid) for mid in members))
    changed = bool(fc.saddle_chains)
    while changed:
        changed = False
        for schema in fc.saddle_chains:
            if out.issuperset(schema.samples) and not schema.target <= out:
                out = out.union(*(member_closure(fc, tid) for tid in schema.target))
                changed = True
    return out


@dataclass(frozen=True)
class SaddleSetVerdict:
    verdict: bool
    witness: Optional[str] = None


def _require_invariant_closed(fc: FlowComplex, members: frozenset[str]) -> None:
    for mid in sorted(members):
        fc.require(mid)
        escape = fc.closure(mid) - members
        if escape:
            raise InvalidSaddleSetError(f"set is not invariant-closed: closure of {mid} adds {sorted(escape)}")


def _escapes(fc: FlowComplex, wid: str, members: frozenset[str]) -> bool:
    # recurrent pieces re-exit every small neighborhood of a proper subset
    # they merely graze; a proper orbit escapes when both ends clear the set
    if wid in fc.family_by_id:
        return fc.family_by_id[wid].kind is PERIODIC_ANNULUS
    orb = fc.orbit_by_id.get(wid)
    if orb is None:
        return False
    if orb.kind is PERIODIC or orb.kind in DENSE_KINDS:
        return True
    ends: set[str] = set()
    for ref in (orb.alpha, orb.omega):
        if ref is not None:
            ends.update(ref.ids)
    return not (ends & members)


def _accumulates(fc: FlowComplex, wid: str, members: frozenset[str]) -> bool:
    fam = fc.family_by_id.get(wid)
    if fam is not None:
        return any(not shrinks and (bset & members) for bset, shrinks in fam.boundaries())
    orb = fc.orbit_by_id.get(wid)
    if orb is not None and (orb.kind is PERIODIC or orb.kind in DENSE_KINDS):
        if fc.closure(wid) & members:
            return True
    for schema in fc.accumulation_schemas:
        if schema.target <= members and wid in schema.samples:
            return True
    return False


def is_saddle_set(fc: FlowComplex, members: Iterable[str]) -> SaddleSetVerdict:
    """Grazed-and-left criterion: some witness outside the set accumulates on
    it while escaping every small neighborhood in both time directions."""
    mset = frozenset(members)
    _require_invariant_closed(fc, mset)
    for wid in sorted(fc.all_ids - mset):
        if _accumulates(fc, wid, mset) and _escapes(fc, wid, mset):
            return SaddleSetVerdict(True, wid)
    return SaddleSetVerdict(False, None)


def is_isolated(fc: FlowComplex, members: Iterable[str]) -> bool:
    """Isolated from minimal sets: no declared accumulation of minimal sets
    (a singularity sequence, or a family sequence of shrinking annuli)
    converges into the set from outside."""
    mset = frozenset(members)
    _require_invariant_closed(fc, mset)
    for schema in fc.accumulation_schemas:
        if not schema.target <= mset or set(schema.samples) <= mset:
            continue
        if schema.kind is SINGULARITY_SEQUENCE:
            return False
        if schema.kind is FAMILY_SEQUENCE:
            fams = [fc.family_by_id.get(s) for s in schema.samples]
            if all(
                f is not None and f.kind is PERIODIC_ANNULUS and (f.shrinks0 or f.shrinks1)
                for f in fams
            ):
                return False
    return True


def _single_saddle(fc: FlowComplex, members: frozenset[str]) -> bool:
    return len(members) == 1 and fc.is_saddle(next(iter(members)))


def generalized_saddle_sets(fc: FlowComplex) -> list[frozenset[str]]:
    """The expansion sets used by generalized recurrence: every singleton
    saddle plus every declared set whose isolated flag is true.

    Each declaration is judged by ``Expansion.admit``'s rule: the saddle-set
    criterion is waived for a single saddle, and the isolated flag must
    equal ``is_isolated``; an inconsistent declaration is an error.
    """
    sets = [frozenset({sid}) for sid in sorted(fc.saddle_ids)]
    for decl in fc.saddle_set_decls:
        single = _single_saddle(fc, decl.members)
        if not single and not is_saddle_set(fc, decl.members).verdict:
            raise InvalidSaddleSetError(f"declared set {decl.id!r} fails the saddle-set criterion")
        if is_isolated(fc, decl.members) != decl.isolated:
            raise InvalidSaddleSetError(f"declared set {decl.id!r} has an inconsistent isolated flag")
        # a single saddle is already listed as its own singleton
        if decl.isolated and not single:
            sets.append(decl.members)
    return sets
