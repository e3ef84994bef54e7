"""Line-oriented flow-complex text format.

One record per line: ``surface`` (first non-comment line), then ``sing``,
``orbit``, ``family``, ``accum`` and ``saddleset`` records in any order;
``#`` starts a comment.  Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``.
``emit`` writes the canonical serialization (records sorted by kind then
id, fields in a fixed order), which round-trips through ``parse``.

Record shapes::

    surface genus=0 orientable=true boundary=0
    sing q point kind=other          # point kinds: center saddle sink source other
    sing seg arc                     # or: circle
    orbit m proper alpha=sing:q omega=sing:q
    orbit u dense alpha=sing:s2 closure=c1,c2,s1,s2,u,w
    orbit g periodic
    family fn kind=annulus b0=m,q b1=n shrinks1=true
    accum chain kind=saddle_chain samples=p2,a3 target=o
    saddleset ssp members=pp isolated=true

Limit references are ``sing:<id>``, ``orbit:<id>`` or ``set:<id,id,...>``.
Syntax errors carry the line and the column of the offending token or
value, and are all collected in one pass; whether references resolve, and
name the kind of piece their prefix says, is left to validation.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

from .model import (
    AccumulationSchema,
    Family,
    FamilyKind,
    FlowComplex,
    FlowComplexError,
    KIND_TEXT,
    LimitRef,
    OrbitClass,
    OrbitKind,
    POINT,
    PointKind,
    PreconditionError,
    RefKind,
    SET_REF,
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
    require_complex,
    value_class,
)


@value_class
class ParseError:
    """One error in a document, at its 1-based line and column."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseErrors(FlowComplexError):
    def __init__(self, errors: list[ParseError]):
        # a string would be stored as a list of its characters
        if isinstance(errors, str) or not isinstance(errors, Iterable):
            raise PreconditionError(f"ParseErrors takes a list of ParseError, not {type(errors).__name__}")
        self.errors = list(errors)
        for e in self.errors:
            if not isinstance(e, ParseError):
                raise PreconditionError(f"ParseErrors takes a list of ParseError, not one holding {e!r}")
        super().__init__("; ".join(str(e) for e in self.errors))


def parse_int(text: str) -> int:
    """``int(text)`` for ASCII digits after an optional ``-`` only; ``1_0`` and ``+1`` raise ``ValueError``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _column(raw: str, tokens: list[str], i: int, offset: int) -> int:
    """1-based column of ``offset`` characters into token ``i`` of ``raw``."""
    pos = 0
    for tok in tokens[: i + 1]:
        pos = raw.index(tok, pos) + len(tok)
    return pos - len(tokens[i]) + offset + 1


# what the fast paths of ``_Reader`` look up: whole ``kind=`` tokens, orbit and reference kinds
_POINT_KINDS = {f"kind={k.value}": k for k in PointKind}
_FAMILY_KINDS = {f"kind={k.value}": k for k in FamilyKind}
_ORBIT_KINDS = OrbitKind._value2member_map_
_REF_KINDS = RefKind._value2member_map_
# the builders of the records the reader makes: every value it passes them
# has passed its own checks, which are stricter than ``__init__``'s
_ref, _sing, _orbit = LimitRef._trusted, SingularSet._trusted, OrbitClass._trusted
_family, _accum, _saddleset = Family._trusted, AccumulationSchema._trusted, SaddleSetDecl._trusted


class _Reader:
    """One document's surface, seen values and errors, read one line at a time.

    A record method checks the line in ``tokens`` and returns its record,
    or None when the line has an error.  It builds the record through the
    class's ``_trusted`` builder, which skips ``__init__``'s tests: the
    checks here already passed every value.  A point ``sing`` line, an
    ``orbit`` line with no field or with ``alpha=`` and ``omega=`` only,
    and a ``family`` line, each with its fields in the order ``emit``
    writes them, are read at the known positions of those fields; the one
    ``surface`` line and any other line, valid or not, go through ``fields``
    and the helpers after it, which report what is off (an absent field
    reads None).
    Every field present is checked, so a missing field does not hide a bad
    value elsewhere on the line.  A failed check adds ``(token index, offset,
    message)`` to ``pending``; ``parse`` turns those into ``ParseError``s,
    locating the tokens only on lines that fail.
    Equal reference and id-set values are checked and built once and then
    shared.
    """

    def __init__(self) -> None:
        self.surface: SurfaceInfo | None = None
        self.pending: list[tuple[int, int, str]] = []
        self.tokens: list[str] = []
        self.start = 0  # index of the line's first key=value token
        self._refs: dict[str, LimitRef] = {}
        self._id_sets: dict[str, frozenset[str]] = {}

    def fail(self, i: int, message: str, offset: int = 0) -> None:
        self.pending.append((i, offset, message))

    def fail_field(self, key: str, message: str, offset: int = 0) -> None:
        """Fail at ``offset`` characters into the value of field ``key``: the
        first ``key=`` token with a value, which is the one ``fields`` kept."""
        tokens = self.tokens
        for i in range(self.start, len(tokens)):
            k, _, value = tokens[i].partition("=")
            if k == key and value:
                self.fail(i, message, len(key) + 1 + offset)
                return

    def fields(self, start: int, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict[str, str]:
        """The ``key=value`` tokens from ``start`` on; ``required`` is sorted, so
        missing keys are reported in that order."""
        self.start = start
        fields: dict[str, str] = {}
        for i, tok in enumerate(self.tokens[start:], start):
            key, eq, value = tok.partition("=")
            if value and key in allowed and key not in fields:
                fields[key] = value
            elif not eq:
                self.fail(i, f"expected key=value, got {tok!r}")
            elif key not in allowed:
                self.fail(i, f"unknown field {key!r}")
            elif key in fields:
                self.fail(i, f"duplicate field {key!r}")
            else:
                self.fail(i, f"empty value for {key!r}")
        for key in required:
            # an empty value is reported where it stands, not again as missing
            if key not in fields and f"{key}=" not in self.tokens[start:]:
                self.fail(0, f"{self.tokens[0]} record is missing {key}")
        return fields

    def enum(self, enum_cls, value: str | None, what: str, key: str | None = None):
        """The member of ``enum_cls`` spelled ``value``: token 2, or field ``key``."""
        found = enum_cls._value2member_map_.get(value)
        if found is None and value is not None:
            choices = ", ".join(e.value for e in enum_cls)
            message = f"unknown {what} {value!r} (one of: {choices})"
            if key is None:
                self.fail(2, message)
            else:
                self.fail_field(key, message)
        return found

    def flag(self, fields: dict[str, str], key: str) -> bool:
        value = fields.get(key)
        if value is None or value == "false":
            return False
        if value == "true":
            return True
        self.fail_field(key, f"{key} must be true or false")
        return False

    def integer(self, fields: dict[str, str], key: str) -> int | None:
        try:
            return parse_int(fields[key]) if key in fields else None
        except ValueError:
            self.fail_field(key, f"{key} must be an integer")
            return None

    def ids(self, key: str, value: str | None, offset: int = 0) -> list[str] | None:
        """The ids of the comma list ``value``, ``offset`` characters into field
        ``key``, or None after failing at each bad one."""
        if value is None:
            return None
        parts = value.split(",")
        if value.isascii() and all(map(str.isidentifier, parts)):
            return parts
        for part in parts:
            if not (part.isidentifier() and part.isascii()):
                self.fail_field(key, f"bad identifier {part!r}", offset)
            offset += len(part) + 1
        return None

    def id_set(self, key: str, value: str | None) -> frozenset[str] | None:
        found = self._id_sets.get(value)
        if found is None:
            parts = self.ids(key, value)
            if parts is not None:
                found = self._id_sets[value] = frozenset(parts)
        return found

    def ref(self, key: str, value: str) -> LimitRef | None:
        found = self._refs.get(value)
        if found is not None:
            return found
        prefix, colon, rest = value.partition(":")
        kind = _REF_KINDS.get(prefix)
        if not colon:
            self.fail_field(key, f"limit reference needs a sing:/orbit:/set: prefix, got {value!r}")
        elif kind is None:
            self.fail_field(key, f"unknown reference kind {prefix!r}")
        elif kind is SET_REF:
            ids = self.ids(key, rest, 4)
            if ids is not None:
                found = self._refs[value] = _ref(kind, tuple(ids))
        elif rest.isidentifier() and rest.isascii():
            found = self._refs[value] = _ref(kind, (rest,))
        else:
            self.fail_field(key, f"bad identifier {rest!r}", len(prefix) + 1)
        return found

    # -- one method per record kind ------------------------------------------

    def surface_record(self) -> None:
        if self.surface is not None:
            self.fail(0, "duplicate surface record")
        fields = self.fields(1, ("genus", "orientable", "boundary"), ("boundary", "genus", "orientable"))
        genus = self.integer(fields, "genus")
        orientable = self.flag(fields, "orientable")
        boundary = self.integer(fields, "boundary")
        for key, n in (("genus", genus), ("boundary", boundary)):
            if n is not None and n < 0:
                self.fail_field(key, f"{key} must be non-negative")
        if genus == 0 and fields.get("orientable") == "false":
            self.fail_field("genus", "a non-orientable surface has genus at least 1")
        if not self.pending:
            self.surface = SurfaceInfo(genus, orientable, boundary)

    def sing_record(self, rid: str) -> SingularSet | None:
        tokens = self.tokens
        kind = _POINT_KINDS.get(tokens[3]) if len(tokens) == 4 and tokens[2] == "point" else None
        if kind is not None:
            return None if self.pending else _sing(rid, POINT, kind)
        if len(tokens) < 3:
            return self.fail(0, "sing record needs a shape")
        shape = self.enum(Shape, tokens[2], "shape")
        fields = self.fields(3, ("kind",))
        kind = None
        if shape is POINT:
            if "kind" in fields:
                kind = self.enum(PointKind, fields["kind"], "point kind", "kind")
            else:
                self.fail(2, "point singularities need kind=")
        elif shape is not None and "kind" in fields:
            self.fail_field("kind", "arc/circle singular sets take no kind")
        return None if self.pending else _sing(rid, shape, kind)

    def orbit_record(self, rid: str) -> OrbitClass | None:
        tokens = self.tokens
        if len(tokens) == 3:
            kind = _ORBIT_KINDS.get(tokens[2])
            if kind is not None:
                return None if self.pending else _orbit(rid, kind)
        elif len(tokens) == 5:
            kind = _ORBIT_KINDS.get(tokens[2])
            a_key, _, alpha = tokens[3].partition("=")
            o_key, _, omega = tokens[4].partition("=")
            if kind is not None and a_key == "alpha" and o_key == "omega" and alpha and omega:
                self.start = 3  # as ``fields`` would set it, for ``fail_field`` on a bad reference
                alpha, omega = self.ref("alpha", alpha), self.ref("omega", omega)
                return None if self.pending else _orbit(rid, kind, alpha, omega)
        if len(tokens) < 3:
            return self.fail(0, "orbit record needs a kind")
        kind = self.enum(OrbitKind, tokens[2], "orbit kind")
        fields = self.fields(3, ("alpha", "omega", "closure"))
        alpha, omega, closure = fields.get("alpha"), fields.get("omega"), fields.get("closure")
        alpha = alpha and self.ref("alpha", alpha)
        omega = omega and self.ref("omega", omega)
        closure = closure and self.id_set("closure", closure)
        return None if self.pending else _orbit(rid, kind, alpha, omega, closure)

    def family_record(self, rid: str) -> Family | None:
        tokens = self.tokens
        if 5 <= len(tokens) <= 7:
            kind = _FAMILY_KINDS.get(tokens[2])
            b0_key, _, b0 = tokens[3].partition("=")
            b1_key, _, b1 = tokens[4].partition("=")
            flags = tokens[5:]
            shrinks0, shrinks1 = "shrinks0=true" in flags, "shrinks1=true" in flags
            bounds = b0_key == "b0" and b1_key == "b1" and b0 and b1
            # every flag token is one of the two, each at most once
            if kind is not None and bounds and len(flags) == shrinks0 + shrinks1:
                self.start = 2
                b0, b1 = self.id_set("b0", b0), self.id_set("b1", b1)
                return None if self.pending else _family(rid, kind, b0, b1, shrinks0, shrinks1)
        fields = self.fields(2, ("kind", "b0", "b1", "shrinks0", "shrinks1"), ("b0", "b1", "kind"))
        kind = self.enum(FamilyKind, fields.get("kind"), "family kind", "kind")
        b0, b1 = self.id_set("b0", fields.get("b0")), self.id_set("b1", fields.get("b1"))
        shrinks0, shrinks1 = self.flag(fields, "shrinks0"), self.flag(fields, "shrinks1")
        return None if self.pending else _family(rid, kind, b0, b1, shrinks0, shrinks1)

    def accum_record(self, rid: str) -> AccumulationSchema | None:
        fields = self.fields(2, ("kind", "samples", "target"), ("kind", "samples", "target"))
        kind = self.enum(SchemaKind, fields.get("kind"), "schema kind", "kind")
        samples = self.ids("samples", fields.get("samples"))
        target = self.id_set("target", fields.get("target"))
        return None if self.pending else _accum(rid, kind, tuple(samples), target)

    def saddleset_record(self, rid: str) -> SaddleSetDecl | None:
        fields = self.fields(2, ("members", "isolated"), ("isolated", "members"))
        members, isolated = self.id_set("members", fields.get("members")), self.flag(fields, "isolated")
        return None if self.pending else _saddleset(rid, members, isolated)


# each record head after ``surface`` and the ``_Reader`` method that reads it,
# in FlowComplex field order
_RECORD_KINDS = (
    ("sing", _Reader.sing_record),
    ("orbit", _Reader.orbit_record),
    ("family", _Reader.family_record),
    ("accum", _Reader.accum_record),
    ("saddleset", _Reader.saddleset_record),
)
_by_id = attrgetter("id")


def parse(text: str) -> FlowComplex:
    """Parse a document; raises ``ParseErrors`` carrying every syntax error found."""
    if not isinstance(text, str):
        raise PreconditionError(f"parse takes a str, not {type(text).__name__}")
    r = _Reader()
    # record head -> its reader and the records it built, in FlowComplex field order
    records = {head: (read, []) for head, read in _RECORD_KINDS}
    pending = r.pending
    errors: list[ParseError] = []
    seen_ids: dict[str, int] = {}
    surface_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        r.tokens = tokens
        head = tokens[0]
        if not surface_seen and head != "surface":
            r.fail(0, "the first record must be a surface line")
        surface_seen = True  # a misplaced surface line is reported once
        entry = records.get(head)
        if entry is not None:
            if len(tokens) < 2:
                r.fail(0, f"{head} record needs an identifier")
            else:
                rid = tokens[1]
                if not (rid.isidentifier() and rid.isascii()):
                    r.fail(1, f"bad identifier {rid!r}")
                first = seen_ids.setdefault(rid, lineno)
                if first != lineno:
                    r.fail(1, f"duplicate id {rid!r} (first declared on line {first})")
                read, built = entry
                record = read(r, rid)  # every field is checked, even after an error
                if record is not None:
                    built.append(record)
        elif head == "surface":
            r.surface_record()
        else:
            r.fail(0, f"unknown record kind {head!r}")
        if pending:
            errors.extend(ParseError(lineno, _column(raw, tokens, i, at), message) for i, at, message in pending)
            pending.clear()

    if r.surface is None and not errors:
        errors.append(ParseError(1, 1, "missing surface record"))
    if errors:
        raise ParseErrors(errors)
    # each group sorted by id: ``seen_ids`` has checked the ids across all
    # five groups, and each record is its group's class, so the complex
    # skips ``FlowComplex.__post_init__``'s pass over them
    return FlowComplex._trusted(r.surface, *(tuple(sorted(built, key=_by_id)) for _, built in records.values()))


def _emit_ref(ref: LimitRef) -> str:
    return f"{KIND_TEXT[ref.kind]}:{','.join(ref.ids)}"


def _emit_ids(ids) -> str:
    return ",".join(sorted(ids))


def emit(fc: FlowComplex) -> str:
    """Canonical serialization: deterministic and byte-identical for equal complexes."""
    require_complex(fc, "emit")
    try:
        s = fc.surface
        lines = [f"surface genus={s.genus} orientable={str(s.orientable).lower()} boundary={s.boundary_components}"]
        for sg in fc.singular_sets:  # a point, and only a point, has a kind
            lines.append(f"sing {sg.id} {KIND_TEXT[sg.shape]}" + ("" if sg.kind is None else f" kind={KIND_TEXT[sg.kind]}"))
        for o in fc.orbit_classes:
            parts = [f"orbit {o.id} {KIND_TEXT[o.kind]}"]
            if o.alpha is not None:
                parts.append(f"alpha={_emit_ref(o.alpha)}")
            if o.omega is not None:
                parts.append(f"omega={_emit_ref(o.omega)}")
            if o.closure_decl is not None:
                parts.append(f"closure={_emit_ids(o.closure_decl)}")
            lines.append(" ".join(parts))
        for f in fc.families:
            parts = [f"family {f.id} kind={KIND_TEXT[f.kind]} b0={_emit_ids(f.boundary0)} b1={_emit_ids(f.boundary1)}"]
            if f.shrinks0:
                parts.append("shrinks0=true")
            if f.shrinks1:
                parts.append("shrinks1=true")
            lines.append(" ".join(parts))
        for a in fc.accumulation_schemas:
            lines.append(f"accum {a.id} kind={KIND_TEXT[a.kind]} samples={','.join(a.samples)} target={_emit_ids(a.target)}")
        for d in fc.saddle_set_decls:
            lines.append(f"saddleset {d.id} members={_emit_ids(d.members)} isolated={str(d.isolated).lower()}")
        return "\n".join(lines) + "\n"
    except TypeError as exc:  # an id that is not a str, in a record made directly
        raise PreconditionError(f"emit takes a complex whose ids are strs: {exc}") from None
