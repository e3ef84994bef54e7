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

import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from types import UnionType
from typing import Callable, Collection, Iterable, Mapping, Optional, Union, get_args, get_origin


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
# The text of every kind member, for the writers: on 3.11 ``.value`` is a
# Python-level property, about 0.33 us a read.
KIND_TEXT = {member: member.value for kinds in (Shape, PointKind, OrbitKind, FamilyKind, SchemaKind, RefKind) for member in kinds}


class cached_attribute:
    """A per-instance cache: the first read of ``obj.name`` computes the value
    and stores it in ``obj.__dict__``, where every later read finds it first.

    The standard library's cached property does the same on CPython 3.12+;
    on 3.10 and 3.11 it takes a lock, shared by every instance, on each
    first read.  Two threads reading first at the same moment may both
    compute the value; the values are equal and one of them is kept.
    Reading the attribute on the class returns this descriptor, with the
    function's docstring.
    """

    def __init__(self, func: Callable[[object], object]):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance: object, owner: Optional[type] = None) -> object:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _frozen(self, name: str, *value: object) -> None:
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class _Factory:
    """The default of a parameter filled by its field's ``default_factory``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def _value_eq(self, other: object) -> bool:
    if other.__class__ is self.__class__:
        return self._field_values(self) == self._field_values(other)
    return NotImplemented


def _value_hash(self) -> int:
    return hash(self._field_values(self))


def _value_repr(self) -> str:
    pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._field_values(self)))
    return f"{type(self).__qualname__}({pairs})"


def _value_getstate(self) -> tuple:
    return self._field_values(self)


def _value_setstate(self, state: Iterable[object]) -> None:
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def _type_test(name: str, annotation: str, namespace: dict) -> tuple[str, object, str]:
    """The source of a test that ``name`` is of the wrong type for a field
    annotated ``annotation`` (a string: every module here postpones its
    annotations) in a module with globals ``namespace``, the
    ``_type_<name>`` it passes to ``isinstance``, and the type's name in a
    message.  The test is shallow: ``Optional[X]`` allows ``None``, a generic
    alias checks only its origin (``frozenset[str]`` is any frozenset),
    ``int`` rejects ``bool``, and an enum takes only its own members."""
    hint = eval(annotation, namespace)
    members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    classes = tuple(get_origin(m) or m for m in members if m is not type(None))
    test = f"not isinstance({name}, _type_{name})"
    if int in classes and bool not in classes:  # a bool is an int to isinstance
        test = f"{name} is True or {name} is False or {test}"
    names = [f"{'an' if c.__name__[0] in 'AEIOUaeiou' else 'a'} {c.__name__}" for c in classes]
    if len(classes) < len(members):
        test = f"{name} is not None and ({test})"
        names.append("None")
    return test, classes[0] if len(classes) == 1 else classes, " or ".join(names)


def value_class(cls: Optional[type] = None, /, *, slots: bool = False):
    """``dataclass(frozen=True)``, with one generated method where the stdlib
    generates one per method.

    ``dataclass(init=False, repr=False, eq=False, slots=slots)`` keeps
    ``fields``, ``__match_args__`` and the slots, and runs no ``exec`` on
    CPython 3.10-3.12 (one on 3.13).  ``__init__`` is generated from
    ``fields`` in one ``exec``, with the stdlib's signature, defaults,
    ``default_factory`` and ``__post_init__``.  It stores each field through
    its slot's descriptor when the class has slots (about half the time of
    the ``object.__setattr__`` a frozen dataclass uses, which the others
    keep).
    Equality, hashing and ``repr`` are shared functions that read the fields
    as one tuple, as the stdlib's do, and setting or deleting any attribute
    raises ``FrozenInstanceError``.  Slotted classes pickle their field
    tuple.  ``__init__`` rejects ``None`` in a field without a default, and
    a value of the wrong type in any field (each annotation is resolved
    once, here; see ``_type_test``), with a ``PreconditionError`` naming the
    class, the record's ``id`` when it has one, the field, and the expected
    type and the value (``Family 'f' boundary0 must be a frozenset, not
    ['a']``).  So no record, made directly or by ``dataclasses.replace``,
    lacks a required field or holds a value of the wrong type.  Use it as
    ``@value_class`` or ``@value_class(slots=True)``.
    A slotted class also gets the builder ``cls._trusted``, from the same
    ``exec``: the signature of ``__init__``, the same stores and
    ``__post_init__``, without the ``None`` and type tests.  Only the
    document reader calls it, with values its own stricter checks passed.
    """
    if cls is None:
        return lambda cls: value_class(cls, slots=slots)
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    # every field is an ``__init__`` parameter, so ``__match_args__`` names
    # them all, in order
    names = cls.__match_args__
    module = vars(sys.modules[cls.__module__])
    params, body = [], []
    trusted = ["\n    self = _new(_cls)"]
    namespace = {"_FACTORY": _FACTORY, "_setattr": object.__setattr__, "PreconditionError": PreconditionError}
    annotations = {}
    for f in fields(cls):
        name = f.name
        annotations[name] = f.type
        # the messages name the record by its id when it has one
        who = f"{cls.__name__} {{id!r}}" if "id" in names and name != "id" else cls.__name__
        if f.default is not MISSING:
            params.append(f"{name}=_default_{name}")
            namespace[f"_default_{name}"] = f.default
        elif f.default_factory is not MISSING:
            params.append(f"{name}=_FACTORY")
            body.append(f"\n    if {name} is _FACTORY: {name} = _factory_{name}()")
            trusted.append(body[-1])
            namespace[f"_factory_{name}"] = f.default_factory
        else:
            params.append(name)
            body.append(f"\n    if {name} is None: raise PreconditionError(f{who + ' has no ' + name!r})")
        wrong, namespace[f"_type_{name}"], expected = _type_test(name, f.type, module)
        message = f"{who} {name} must be {expected}, not {{{name}!r}}"
        body.append(f"\n    if {wrong}: raise PreconditionError(f{message!r})")
        if slots:
            body.append(f"\n    _set_{name}(self, {name})")
            trusted.append(body[-1])
            namespace[f"_set_{name}"] = getattr(cls, name).__set__
        else:
            body.append(f"\n    _setattr(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("\n    self.__post_init__()")
        trusted.append(body[-1])
    source = f"def __init__(self, {', '.join(params)}):{''.join(body)}"
    if slots:
        namespace.update(_new=object.__new__, _cls=cls)
        source += f"\ndef _trusted({', '.join(params)}):{''.join(trusted)}\n    return self"
    exec(source, namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    if slots:
        cls._trusted = staticmethod(namespace["_trusted"])
        cls._trusted.__qualname__ = f"{cls.__qualname__}._trusted"
    # a one-field class hashes a one-tuple, as the stdlib's does
    getter = attrgetter(*names) if len(names) > 1 else lambda self, name=names[0]: (getattr(self, name),)
    cls._field_values = staticmethod(getter)
    cls.__eq__, cls.__hash__, cls.__repr__ = _value_eq, _value_hash, _value_repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    if slots:
        cls.__getstate__, cls.__setstate__ = _value_getstate, _value_setstate
    return cls


@value_class
class SurfaceInfo:
    """Topological type of the underlying compact connected surface."""

    genus: int
    orientable: bool
    boundary_components: int

    def __post_init__(self) -> None:
        for key in ("genus", "boundary_components"):
            if getattr(self, key) < 0:
                raise PreconditionError(f"{key} must be non-negative")
        if self.genus == 0 and not self.orientable:
            raise PreconditionError("a non-orientable surface has genus at least 1")

    @property
    def closed(self) -> bool:
        return self.boundary_components == 0

    @property
    def euler_characteristic(self) -> int:
        base = 2 - 2 * self.genus if self.orientable else 2 - self.genus
        return base - self.boundary_components


@value_class(slots=True)
class LimitRef:
    """A declared alpha- or omega-limit: a singular set, an orbit, or a set of ids."""

    kind: RefKind
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        """Its ids are ``str``s: one for ``sing:`` and ``orbit:``, at least one, sorted and distinct, for ``set:``."""
        ids = self.ids
        for rid in ids:
            if not isinstance(rid, str):
                raise PreconditionError(f"LimitRef ids must be strs, not {rid!r}")
        if self.kind is SET_REF and ids:
            object.__setattr__(self, "ids", tuple(sorted(set(ids))))
        elif len(ids) != 1:
            least = "at least " if self.kind is SET_REF else ""
            raise PreconditionError(f"LimitRef {self.kind.value}: names {least}one id, not {ids!r}")

    @classmethod
    def sing(cls, sid: str) -> "LimitRef":
        return cls(RefKind.SING, (sid,))

    @classmethod
    def orbit(cls, oid: str) -> "LimitRef":
        return cls(RefKind.ORBIT, (oid,))

    @classmethod
    def of_set(cls, ids: Iterable[str]) -> "LimitRef":
        return cls(RefKind.SET, tuple(ids))

    def resolved(self) -> frozenset[str]:
        return frozenset(self.ids)


@value_class(slots=True)
class SingularSet:
    """A fixed point (with a local type) or a continuum of fixed points."""

    id: str
    shape: Shape
    kind: Optional[PointKind] = None

    def __post_init__(self) -> None:
        if self.shape is POINT:
            if self.kind is None:
                raise PreconditionError(f"point singularity {self.id!r} needs a kind")
        elif self.kind is not None:
            raise PreconditionError(f"arc/circle singular set {self.id!r} carries no point kind")

    @property
    def is_saddle(self) -> bool:
        return self.kind is SADDLE


@value_class(slots=True)
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


@value_class(slots=True)
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


@value_class(slots=True)
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

    def __post_init__(self) -> None:
        if not self.samples or not self.target:
            raise PreconditionError(f"AccumulationSchema {self.id!r} samples and target must be nonempty")


@value_class(slots=True)
class SaddleSetDecl:
    """A declared compact invariant set, with its claimed isolation status."""

    id: str
    members: frozenset[str]
    isolated: bool


@value_class
class Violation:
    """One broken structural rule: the offending id, the rule's name and a detail."""

    id: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:  # as ``flowcomplex validate`` prints it
        return f"{self.id}: {self.rule} ({self.detail})"


@value_class
class ValidationReport:
    """Every violation ``validate`` found, rule group by rule group."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> frozenset[str]:
        return frozenset(v.rule for v in self.violations)


# each record group of a complex and the record class it holds, in field order
_GROUPS = (("singular_sets", SingularSet), ("orbit_classes", OrbitClass), ("families", Family),
           ("accumulation_schemas", AccumulationSchema), ("saddle_set_decls", SaddleSetDecl))


@value_class
class FlowComplex:
    """Immutable symbolic flow presentation; all operations are pure functions of it.
    However it is made, each group holds only its own record class, in id
    order, and no id names two records."""

    surface: SurfaceInfo
    singular_sets: tuple[SingularSet, ...] = ()
    orbit_classes: tuple[OrbitClass, ...] = ()
    families: tuple[Family, ...] = ()
    accumulation_schemas: tuple[AccumulationSchema, ...] = ()
    saddle_set_decls: tuple[SaddleSetDecl, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, record_type in _GROUPS:
            records = getattr(self, name)
            if not records:
                continue
            for rec in records:
                if not isinstance(rec, record_type):
                    raise PreconditionError(f"{name} must hold {record_type.__name__} records, not {rec!r}")
                if rec.id in seen:
                    raise PreconditionError(f"duplicate id {rec.id!r}")
                seen.add(rec.id)
            object.__setattr__(self, name, tuple(sorted(records, key=attrgetter("id"))))

    @classmethod
    def _trusted(cls, surface: SurfaceInfo, *groups: tuple) -> "FlowComplex":
        """A complex of five groups that each hold only their own record
        class, in id order, with no id naming two records: what ``parse``
        has checked line by line.  Only ``parse`` calls it; it skips
        ``__post_init__``'s pass over the records."""
        fc = object.__new__(cls)
        vars(fc).update(zip(cls.__match_args__, (surface, *groups)))
        return fc

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
        """Construct from any iterables of records."""
        groups = (singular_sets, orbit_classes, families, accumulation_schemas, saddle_set_decls)
        for (argument, record_type), records in zip(_GROUPS, groups):
            if not isinstance(records, Iterable) or isinstance(records, str):
                raise PreconditionError(f"{argument} must be a collection of {record_type.__name__} records, not {records!r}")
        return cls(surface, *map(tuple, groups))

    @cached_attribute
    def sing_by_id(self) -> Mapping[str, SingularSet]:
        return {s.id: s for s in self.singular_sets}

    @cached_attribute
    def orbit_by_id(self) -> Mapping[str, OrbitClass]:
        return {o.id: o for o in self.orbit_classes}

    @cached_attribute
    def family_by_id(self) -> Mapping[str, Family]:
        return {f.id: f for f in self.families}

    @cached_attribute
    def classes_by_limit(self) -> Mapping[tuple[str, str], list[tuple[frozenset[str], str]]]:
        """Orbit classes indexed by their resolved alpha and omega limits.

        ``(side, lid)``, with ``side`` "alpha" or "omega", maps to the
        ``(limit, class id)`` pairs whose limit on that side has ``lid`` as its
        least id, so every limit lying inside an id set is found through the
        set's own ids.  Built on first use, with one frozenset per distinct limit.
        Plain extension reads ``separatrices`` instead; this index serves the
        declared saddle sets of generalized extension and
        ``Classifier.limit_cycles``.
        """
        out: dict[tuple[str, str], list[tuple[frozenset[str], str]]] = {}
        limits: dict[tuple[str, ...], tuple[str, frozenset[str]]] = {}
        for o in self.orbit_classes:
            for side, ref in (("alpha", o.alpha), ("omega", o.omega)):
                if ref is not None:
                    entry = limits.get(ref.ids)
                    if entry is None:
                        entry = limits[ref.ids] = (ref.ids[0], ref.resolved())
                    lid, limit = entry
                    out.setdefault((side, lid), []).append((limit, o.id))
        return out

    @cached_attribute
    def separatrices(self) -> Mapping[str, tuple[list[str], list[str]]]:
        """Each saddle's ``(stable, unstable)`` separatrices: the orbit classes
        whose omega, or alpha, is the point reference ``sing:<saddle>``, in id
        order.  A homoclinic loop is in both lists.  On a complex that passes
        ``validate`` these are exactly the classes whose limit lies inside the
        one-saddle set."""
        saddles = self.saddle_ids
        if not saddles:
            return {}
        out: dict[str, tuple[list[str], list[str]]] = {sid: ([], []) for sid in sorted(saddles)}
        get = out.get
        # the two sides spelled out: a loop over them costs a third more
        for o in self.orbit_classes:
            ref = o.omega
            if ref is not None and ref.kind is SING_REF:
                lists = get(ref.ids[0])
                if lists is not None:
                    lists[0].append(o.id)
            ref = o.alpha
            if ref is not None and ref.kind is SING_REF:
                lists = get(ref.ids[0])
                if lists is not None:
                    lists[1].append(o.id)
        return out

    @cached_attribute
    def _report(self) -> ValidationReport:
        return _validate(self)

    @cached_attribute
    def _closures(self) -> dict[str, frozenset[str]]:
        return {}

    def closure(self, xid: str) -> frozenset[str]:
        """``closure_of(self, xid)``, computed once per id and kept for the
        life of the complex.  An id whose closure does not resolve is never
        kept, so it raises ``UnknownIdError`` on every call."""
        try:
            found = self._closures.get(xid)
        except TypeError:  # unhashable: closure_of rejects it
            found = None
        if found is None:
            found = self._closures[xid] = closure_of(self, xid)
        return found

    @cached_attribute
    def all_ids(self) -> frozenset[str]:
        """Ids of dynamical pieces: singular sets, orbit classes, and families."""
        return frozenset(self.sing_by_id) | frozenset(self.orbit_by_id) | frozenset(self.family_by_id)

    @cached_attribute
    def sorted_ids(self) -> tuple[str, ...]:
        """``all_ids`` in ascending order.  Each record group is in id order,
        so the sort only merges three sorted runs."""
        return tuple(sorted([*self.sing_by_id, *self.orbit_by_id, *self.family_by_id]))

    @cached_attribute
    def saddle_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.singular_sets if s.is_saddle)

    @cached_attribute
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
        try:
            s = self.sing_by_id.get(xid)
        except TypeError:  # unhashable: require rejects it
            self.require(xid)
            raise
        return s is not None and s.is_saddle


def require_complex(fc: object, caller: str) -> None:
    """Reject anything but a ``FlowComplex`` where ``caller`` needs one."""
    if not isinstance(fc, FlowComplex):
        raise PreconditionError(f"{caller} takes a FlowComplex, not {type(fc).__name__}")


def require_valid(fc: object, caller: str) -> None:
    """Reject anything but a ``FlowComplex`` that passes ``validate`` where ``caller``
    analyses one, listing each violation as ``flowcomplex validate`` prints it."""
    require_complex(fc, caller)
    if fc._report.violations:
        raise PreconditionError("\n".join([f"{caller} takes a complex that passes validate, which reports:", *map(str, fc._report.violations)]))


def _closure_step(fc: FlowComplex, xid: str) -> Collection[str]:
    """Ids adjoined to ``xid`` by one application of the closure rule: ``()``
    for a singular set or a periodic orbit, a proper orbit's end ids as a
    tuple, and a frozenset for a family or a dense class."""
    if xid in fc.sing_by_id:
        return ()
    fam = fc.family_by_id.get(xid)
    if fam is not None:
        return fam.boundary0 | fam.boundary1
    orb = fc.orbit_by_id[xid]
    if orb.kind is PERIODIC:
        return ()
    ends = (orb.alpha.ids if orb.alpha is not None else ()) + (orb.omega.ids if orb.omega is not None else ())
    if orb.kind is PROPER:
        return ends
    # locally dense / exceptional: the declared closure, which must also
    # carry any pinned end limit
    return (orb.closure_decl or frozenset()).union(ends)


def closure_of(fc: FlowComplex, xid: str) -> frozenset[str]:
    """Topological closure of the piece named ``xid``, as a set of ids.

    Periodic orbits and singular sets are closed; a proper non-closed orbit
    adds its resolved end limits; dense classes use their declared closure;
    a family closes to its member region together with both boundaries.
    Set-valued limit references expand recursively, so the result is always
    transitively closed.
    """
    try:
        if xid in fc.sing_by_id:
            return frozenset((xid,))
    except (AttributeError, TypeError):  # not a complex, or an unhashable id; checked here, off the path of every id
        require_complex(fc, "closure_of")
        fc.require(xid)
        raise
    fc.require(xid)
    step = _closure_step(fc, xid)
    for zid in step:
        if zid not in fc.sing_by_id:
            break
    else:  # singular sets are closed, so one step closes the set
        return frozenset((xid, *step))
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
    if not fc.surface.closed:  # the index sum needs no orientation
        return False
    if fc.accumulation_schemas:
        return False
    return all(s.kind in REGULAR_KINDS for s in fc.singular_sets)  # a continuum has no kind


def _check_poincare_hopf(fc: FlowComplex, out: list[Violation]) -> None:
    if not _poincare_hopf_applies(fc):
        return
    # every singular set is a regular point here: index -1 for a saddle, +1
    # for a center, sink or source
    saddles = sum(1 for s in fc.singular_sets if s.kind is SADDLE)
    index_sum = len(fc.singular_sets) - 2 * saddles
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


def _leaves(fc: FlowComplex, wid: str, members: frozenset[str]) -> bool:
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


def _saddle_witness(fc: FlowComplex, mset: frozenset[str]) -> Optional[str]:
    """The grazed-and-left witness of an invariant-closed set, or None: the
    first id outside ``mset`` that accumulates on it and leaves it.  It scans
    every id ``_accumulates`` can hold true for, other than singular ids,
    which never leave: the families with a non-shrinking boundary meeting
    ``mset``, the dense and exceptional classes, and the samples of the
    schemas whose target lies inside ``mset``."""
    candidates = {
        fam.id
        for fam in fc.families
        if (not fam.shrinks0 and not fam.boundary0.isdisjoint(mset))
        or (not fam.shrinks1 and not fam.boundary1.isdisjoint(mset))
    }
    candidates.update(o.id for o in fc.orbit_classes if o.kind in DENSE_KINDS)
    sing = fc.sing_by_id
    for schema in fc.accumulation_schemas:
        if schema.target <= mset:
            candidates.update(s for s in schema.samples if s not in sing)
    for wid in sorted(candidates - mset):
        if _accumulates(fc, wid, mset) and _leaves(fc, wid, mset):
            return wid
    return None


def _isolated(fc: FlowComplex, mset: frozenset[str]) -> bool:
    """Whether an invariant-closed set is isolated from minimal sets: no
    declared accumulation of minimal sets (a singularity sequence, or a
    family sequence of shrinking annuli) converges into it from outside."""
    for schema in fc.accumulation_schemas:
        if not schema.target <= mset or mset.issuperset(schema.samples):
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


def validate(fc: FlowComplex) -> ValidationReport:
    """Check every structural invariant; the report lists all violations found.
    The report is made at the first call and kept with the complex, for ``require_valid``."""
    require_complex(fc, "validate")
    return fc._report


def _validate(fc: FlowComplex) -> ValidationReport:
    """``validate``'s checks: one pass over the orbit classes applies their
    record-local rules and gathers what the others need; the closure-based
    rules run only when every reference resolves.  Violations are listed rule
    group by rule group.  Ids that may be unresolved sort by ``str``.

    ``annulus-ends-coincide``: no periodic annulus shrinks onto one point at
    both ends.  Its small members at either end are Jordan curves about the
    point, each bounding a disc (Schoenflies), and such discs nest; so the
    whole annulus would lie in every small disc about the point.  One
    periodic orbit at both ends stays valid: a torus flow does that."""
    known, sing, orbit_by_id = fc.all_ids, fc.sing_by_id, fc.orbit_by_id
    unresolved: list[Violation] = []
    ref_kinds: list[Violation] = []
    kind_rules: list[Violation] = []
    declared: list[OrbitClass] = []  # dense or exceptional classes with a declared closure
    ld_ids: list[str] = []
    set_refs: list[tuple[str, frozenset[str]]] = []
    limits: dict[str, tuple[str, ...]] = {}  # limit ids of each class that is not dense

    for o in fc.orbit_classes:
        oid, kind, decl, alpha, omega = o.id, o.kind, o.closure_decl, o.alpha, o.omega
        for ref in (alpha, omega):
            if ref is None:
                continue
            ids = ref.ids
            if not known.issuperset(ids):
                _check_unresolved(oid, ids, known, unresolved)
            # sing: names a singular set and orbit: an orbit class; set: names
            # several ids, or one that is not singular (a lone singularity is
            # sing:, which the slot count sees); unknown ids are reported above
            if ref.kind is SET_REF:
                wrong = len(ids) == 1 and ids[0] in sing
                set_refs.append((oid, ref.resolved()))
            else:
                first = ids[0]
                wrong = first not in (sing if ref.kind is SING_REF else orbit_by_id) and first in known
            if wrong:
                detail = f"{ref.kind.value}:{','.join(ids)} names the wrong kind of piece"
                ref_kinds.append(Violation(oid, "limit-ref-kind", detail))
        if decl and not decl <= known:
            _check_unresolved(oid, sorted(decl, key=str), known, unresolved)
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
            _check_unresolved(f.id, sorted(f.boundary0 | f.boundary1, key=str), known, unresolved)
    for a in fc.accumulation_schemas:
        _check_unresolved(a.id, (*a.samples, *sorted(a.target, key=str)), known, unresolved)
    for d in fc.saddle_set_decls:
        if not d.members <= known:
            _check_unresolved(d.id, sorted(d.members, key=str), known, unresolved)
    # closure-based checks need resolvable references; everything record-local
    # still runs so the report stays complete
    refs_ok = not unresolved
    out = unresolved + ref_kinds + kind_rules

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
        point = None  # the single point of the first end, if it is one
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
                if single_point:
                    if bid == point and f.kind is PERIODIC_ANNULUS:
                        out.append(Violation(f.id, "annulus-ends-coincide", f"both ends are the point {bid}"))
                    point = bid
            if shrinks and not single_point:
                out.append(Violation(f.id, "shrink-boundary-not-point", "a shrinking boundary is a single point singularity"))
            if single_point and not shrinks:
                out.append(Violation(f.id, "point-boundary-needs-shrink", "members converging to a point must shrink"))

    for a in fc.accumulation_schemas:
        if set(a.samples) & a.target:
            out.append(Violation(a.id, "schema-target-overlap", "target must be disjoint from samples"))
        if a.kind is SINGULARITY_SEQUENCE:
            bad = [s for s in a.samples if s not in sing]
            if bad:
                out.append(Violation(a.id, "schema-sample-kind", f"singularity sequence samples must be singular: {bad}"))
            nonsing = [t for t in sorted(a.target, key=str) if t not in sing]
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
        # a declared set is an invariant saddle set (a single saddle is the
        # degenerate case), flagged isolated exactly when it is; both tests
        # need an invariant set
        for d in fc.saddle_set_decls:
            mset = d.members
            escaping = [mid for mid in sorted(mset) if not fc.closure(mid) <= mset]
            out.extend(Violation(d.id, "saddleset-not-invariant", f"closure of {mid} escapes the declared set") for mid in escaping)
            if escaping:
                continue
            if not (len(mset) == 1 and fc.is_saddle(next(iter(mset)))) and _saddle_witness(fc, mset) is None:
                out.append(Violation(d.id, "saddleset-not-saddle-set", "nothing outside the set accumulates on it and leaves it"))
            if _isolated(fc, mset) != d.isolated:
                detail = "minimal sets accumulate on it" if d.isolated else "no minimal sets accumulate on it"
                out.append(Violation(d.id, "saddleset-isolated-flag", f"declared isolated={str(d.isolated).lower()}, but {detail}"))

    # each saddle owns exactly 2 stable and 2 unstable separatrix slots; a
    # homoclinic loop fills one of each
    for sid, (stable, unstable) in fc.separatrices.items():
        if len(stable) != 2 or len(unstable) != 2:
            detail = f"stable slots filled: {len(stable)}, unstable slots filled: {len(unstable)} (need 2 + 2)"
            out.append(Violation(sid, "saddle-slot-count", detail))
    _check_poincare_hopf(fc, out)
    return ValidationReport(tuple(out))
