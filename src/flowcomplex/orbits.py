"""Extended orbits: the saddle-closure fixpoint and its generalizations.

The forward extension of a seed repeatedly adjoins, for every member whose
omega limit is a single saddle, that saddle together with its unstable set
(all classes emanating from it).  The backward extension mirrors this with
alpha limits and stable sets.  A two-sided extension is the union of the
two one-sided fixpoints, not a joint closure; the membership relation is
reflexive and symmetric but need not be transitive.

Generalized extensions replace single saddles by declared isolated saddle
sets, expanding whenever a member's limit set is contained in such a set;
``validate`` judges each declaration, and ``generalized_saddle_sets`` lists
the admitted ones.  It and ``Expansion`` take only a complex that passes
``validate``.  Plain extension is generalized extension over the singleton
saddle sets: both run the one fixpoint in ``Expansion``.  A single saddle
fires and adjoins its separatrices (``FlowComplex.separatrices``, which
``validate`` builds); only a declared set that is not a single saddle reads
the lazily built limit index (``FlowComplex.classes_by_limit``).
``Expansion.orbit`` runs that fixpoint per seed and keeps each member's
round, for the ``orbit`` command; ``Classifier`` reads members alone from
``Expansion.payloads``, which fills every id's one-sided payload at once.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Iterable, Mapping, Optional, Sequence

from . import model
from .model import (
    FlowComplex,
    PreconditionError,
    UnknownIdError,
    require_complex,
    require_valid,
    value_class,
)


class InvalidSaddleSetError(PreconditionError):
    """A set given to ``is_saddle_set`` or ``is_isolated`` is not invariant-closed."""


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


@value_class
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
    require_complex(fc, "unstable_set")
    fc.require(sid)
    if not fc.is_saddle(sid):
        raise PreconditionError(f"{sid!r} is not a saddle")
    return frozenset(_classes_limiting_into(fc, frozenset({sid}), "alpha"))


def stable_set(fc: FlowComplex, sid: str) -> frozenset[str]:
    """All orbit classes whose omega limit is exactly the saddle ``sid``."""
    require_complex(fc, "stable_set")
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
    adjoins is computed once per instance, from the saddle's separatrices for
    a single saddle and from the complex's limit index for any other set.
    ``sets`` is a list or tuple of frozensets of the complex's ids.
    """

    def __init__(self, fc: FlowComplex, sets: Sequence[frozenset[str]]):
        require_valid(fc, "Expansion")
        if not isinstance(sets, (list, tuple)):
            raise PreconditionError(f"Expansion takes a list or tuple of frozensets, not {type(sets).__name__}")
        self.fc = fc
        self.sets = sets
        self._holding: dict[str, list[int]] = {}
        known = fc.all_ids
        for i, fset in enumerate(sets):
            if not isinstance(fset, frozenset):
                raise PreconditionError(f"an expansion set is a frozenset, not {fset!r}")
            for mid in fset:
                if mid not in known:
                    raise UnknownIdError(mid)
                self._holding.setdefault(mid, []).append(i)
        self._adjoined: dict[tuple[int, bool], list[str]] = {}
        self._payloads: dict[bool, dict[str, frozenset[str]]] = {}

    @classmethod
    def plain(cls, fc: FlowComplex) -> "Expansion":
        """Plain extension: every saddle is its own expansion set."""
        require_valid(fc, "Expansion")
        return cls(fc, [frozenset({sid}) for sid in sorted(fc.saddle_ids)])

    @classmethod
    def generalized(cls, fc: FlowComplex) -> "Expansion":
        """Generalized extension over ``generalized_saddle_sets(fc)``."""
        require_valid(fc, "Expansion")
        return cls(fc, generalized_saddle_sets(fc))

    def _adjoins(self, i: int, forward: bool) -> list[str]:
        key = (i, forward)
        found = self._adjoined.get(key)
        if found is None:
            fset = self.sets[i]
            found = self._adjoined[key] = sorted(fset) + self._limiting(fset, forward)[1]
        return found

    def _limiting(self, fset: frozenset[str], forward: bool) -> tuple[list[str], list[str]]:
        """The classes whose limit lies inside ``fset``, in id order: on the
        approach side, which fire it, and on the departure side, which it
        adjoins.  A single saddle reads its separatrices, since in a valid
        complex a limit inside ``{s}`` is ``sing:s``; any other set reads the
        limit index."""
        if len(fset) == 1:
            [sid] = fset
            seps = self.fc.separatrices.get(sid)
            if seps is not None:
                return seps if forward else (seps[1], seps[0])
        approach, departure = ("omega", "alpha") if forward else ("alpha", "omega")
        return _classes_limiting_into(self.fc, fset, approach), _classes_limiting_into(self.fc, fset, departure)

    def _fired(self, xid: str, forward: bool) -> Sequence[int]:
        """The sets, in ascending order, that hold the approach-side limit of ``xid``."""
        fc = self.fc
        if xid in fc.sing_by_id:
            return self._holding.get(xid, ())
        orb = fc.orbit_by_id.get(xid)
        ref = None if orb is None else (orb.omega if forward else orb.alpha)
        if ref is None:
            return ()
        ids = ref.ids
        if len(ids) == 1:
            return self._holding.get(ids[0], ())
        sets = self.sets
        # a set holding every limit id holds the first of them
        return [i for i in self._holding.get(ids[0], ()) if sets[i].issuperset(ids)]

    def _one_sided(self, start: str, forward: bool) -> ExtendedOrbitSet:
        added_round: dict[str, int] = {start: SEED_ROUND}
        self_readded = False
        depth = 0
        frontier = [start]
        # a set fired again adjoins only members, and its re-add was seen
        done: set[int] = set()
        rnd = 0
        while frontier:
            rnd += 1
            # a round's sets are those its frontier fires, in any order, so
            # the frontier is read in discovery order
            fresh = []
            for oid in frontier:
                for i in self._fired(oid, forward):
                    if i not in done:
                        done.add(i)
                        for pid in self._adjoins(i, forward):
                            if pid not in added_round:
                                added_round[pid] = rnd
                                fresh.append(pid)
                            elif pid == start:
                                self_readded = True
            if fresh:
                depth = rnd
            frontier = fresh
        return ExtendedOrbitSet(
            start=start,
            direction=Direction.FORWARD if forward else Direction.BACKWARD,
            members=frozenset(added_round),
            added_round=added_round,
            depth=depth,
            self_readded=self_readded,
        )

    def orbit(self, start: str, direction: Direction = Direction.BOTH) -> ExtendedOrbitSet:
        """Least fixpoint from ``start``.  A one-sided ``added_round`` lists
        its members in discovery order.  The two-sided result is the union of
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

    def _sweep(self, forward: bool) -> tuple[dict[str, list[int]], list[list[str]]]:
        """One pass over the sets: ``_fired(xid, forward)`` of every id that fires
        a set (its singular members and the classes limiting into it on the
        approach side), and what each set adjoins, as ``_adjoins`` in no order."""
        sing = self.fc.sing_by_id
        fired: dict[str, list[int]] = {}
        adjoined: list[list[str]] = []
        for i, fset in enumerate(self.sets):
            firing, adds = self._limiting(fset, forward)
            for oid in (*(lid for lid in fset if lid in sing), *firing):
                fired.setdefault(oid, []).append(i)
            adjoined.append([*fset, *adds])
        return fired, adjoined

    def payloads(self, forward: bool) -> dict[str, frozenset[str]]:
        """Every firing id's one-sided payload: all that the sets it fires
        reach, where set ``i`` reaches ``j`` when an id ``i`` adjoins fires ``j``.
        Built once per side from one condensation of that digraph, sinks
        first; ids that fire one component share its row."""
        require_side(forward)
        if forward in self._payloads or not self.sets:
            return self._payloads.get(forward, {})
        fired, adjoined = self._sweep(forward)
        succ = []
        for i, adds in enumerate(adjoined):
            # a set's own members fire it again: the loop changes no component
            reach = {j for oid in adds for j in fired.get(oid, ())}
            reach.discard(i)
            succ.append(reach)
        comp_of = [-1] * len(self.sets)
        rows: list[frozenset[str]] = []
        for c, comp in enumerate(_strong_components(succ)):
            for i in comp:
                comp_of[i] = c
            if len(comp) == 1 and not succ[comp[0]]:
                rows.append(frozenset(adjoined[comp[0]]))
                continue
            # each component below once, however many edges lead to it
            below = {comp_of[j] for i in comp for j in succ[i]}
            below.discard(c)
            rows.append(frozenset().union(*(adjoined[i] for i in comp), *(rows[d] for d in below)))
        row_of = [rows[c] for c in comp_of]
        found = self._payloads[forward] = {
            xid: row_of[sets[0]] if len(sets) == 1 else frozenset().union(*(row_of[i] for i in sets))
            for xid, sets in fired.items()
        }
        return found


def _strong_components(succ: Sequence[Collection[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph ``i -> succ[i]``, each
    listed after every component it reaches (Tarjan 1972, iterative).  A node
    without successors is its own component as soon as it is reached."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        if not succ[root]:
            index[root] = counter
            counter += 1
            comps.append([root])
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        path = [root]
        edges = [iter(succ[root])]
        while path:
            v = path[-1]
            for w in edges[-1]:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    if not succ[w]:
                        comps.append([w])
                        continue
                    stack.append(w)
                    on_stack[w] = True
                    path.append(w)
                    edges.append(iter(succ[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                edges.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
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
    try:
        if xid in fc.family_by_id:
            return frozenset({xid})
    except (AttributeError, TypeError):  # not a complex, or an unhashable id
        require_complex(fc, "member_closure")
        fc.require(xid)
        raise
    return fc.closure(xid)


def orbit_set_closure(fc: FlowComplex, members: Iterable[str]) -> frozenset[str]:
    """Closure of an extended-orbit member set, aware of declared saddle chains.

    If the set contains the sample pattern of a saddle chain, the real
    object continues down the infinite chain, so its closure picks up the
    declared target.
    """
    if isinstance(members, str):  # not a collection of one-character ids
        raise PreconditionError(f"orbit_set_closure takes a collection of ids, not the string {members!r}")
    try:
        chains = fc.saddle_chains
        out = frozenset().union(*(member_closure(fc, mid) for mid in members))
    except (AttributeError, TypeError):  # not a complex, or not a collection
        require_complex(fc, "orbit_set_closure")
        _id_set(members, "orbit_set_closure")
        raise
    changed = bool(chains)
    while changed:
        changed = False
        for schema in chains:
            if out.issuperset(schema.samples) and not schema.target <= out:
                out = out.union(*(member_closure(fc, tid) for tid in schema.target))
                changed = True
    return out


@value_class
class SaddleSetVerdict:
    """Whether a set passes the saddle-set criterion, with the witness that grazes and leaves it."""

    verdict: bool
    witness: Optional[str] = None


def _id_set(members: object, caller: str) -> frozenset[str]:
    """``members`` as a frozenset of ids: a bare string, which would be read
    as a set of one-character ids, or anything else that is not a collection
    of ids is a ``PreconditionError``."""
    if isinstance(members, str):
        raise PreconditionError(f"{caller} takes a collection of ids, not the string {members!r}")
    try:
        return frozenset(members)
    except TypeError:
        raise PreconditionError(f"{caller} takes a collection of ids, not {members!r}") from None


def _require_invariant_closed(fc: FlowComplex, members: frozenset[str]) -> None:
    for mid in sorted(members):
        fc.require(mid)
        escape = fc.closure(mid) - members
        if escape:
            raise InvalidSaddleSetError(f"set is not invariant-closed: closure of {mid} adds {sorted(escape)}")


def is_saddle_set(fc: FlowComplex, members: Iterable[str]) -> SaddleSetVerdict:
    """Grazed-and-left criterion: some witness outside the set accumulates on
    it while escaping every small neighborhood in both time directions."""
    require_complex(fc, "is_saddle_set")
    mset = _id_set(members, "is_saddle_set")
    _require_invariant_closed(fc, mset)
    wid = model._saddle_witness(fc, mset)
    return SaddleSetVerdict(wid is not None, wid)


def is_isolated(fc: FlowComplex, members: Iterable[str]) -> bool:
    """Isolated from minimal sets: no declared accumulation of minimal sets
    (a singularity sequence, or a family sequence of shrinking annuli)
    converges into the set from outside."""
    require_complex(fc, "is_isolated")
    mset = _id_set(members, "is_isolated")
    _require_invariant_closed(fc, mset)
    return model._isolated(fc, mset)


def generalized_saddle_sets(fc: FlowComplex) -> list[frozenset[str]]:
    """The expansion sets used by generalized recurrence: every singleton
    saddle plus every declared set flagged isolated that is not a single
    saddle, on a complex that passes ``validate``, which judges each
    declaration (the ``saddleset-*`` rules)."""
    require_valid(fc, "generalized_saddle_sets")
    sets = [frozenset({sid}) for sid in sorted(fc.saddle_ids)]
    for decl in fc.saddle_set_decls:
        mset = decl.members
        # a single saddle is already listed as its own singleton
        if decl.isolated and not (len(mset) == 1 and fc.is_saddle(next(iter(mset)))):
            sets.append(mset)
    return sets
