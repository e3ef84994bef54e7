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
Syntax errors carry line and column and are all collected in one pass;
whether references resolve, and name the kind of piece their prefix says,
is left to validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    AccumulationSchema,
    Family,
    FamilyKind,
    FlowComplex,
    FlowComplexError,
    LimitRef,
    OrbitClass,
    OrbitKind,
    PointKind,
    RefKind,
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseErrors(FlowComplexError):
    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in errors))


class _LineParser:
    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.text = text
        self.errors: list[ParseError] = []

    def col(self, token: str) -> int:
        pos = self.text.find(token)
        return pos + 1 if pos >= 0 else 1

    def fail(self, token: str, message: str) -> None:
        self.errors.append(ParseError(self.lineno, self.col(token), message))


def _split_fields(lp: _LineParser, tokens: list[str], allowed: frozenset[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            lp.fail(tok, f"expected key=value, got {tok!r}")
            continue
        key, value = tok.split("=", 1)
        if key not in allowed:
            lp.fail(tok, f"unknown field {key!r}")
            continue
        if key in fields:
            lp.fail(tok, f"duplicate field {key!r}")
            continue
        if not value:
            lp.fail(tok, f"empty value for {key!r}")
            continue
        fields[key] = value
    return fields


def _parse_bool(lp: _LineParser, key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    lp.fail(value, f"{key} must be true or false")
    return False


def _parse_int(lp: _LineParser, key: str, value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        lp.fail(value, f"{key} must be an integer")
        return 0
    return n


def _parse_id(lp: _LineParser, value: str) -> str:
    if not _ID_RE.match(value):
        lp.fail(value, f"bad identifier {value!r}")
    return value


def _parse_id_list(lp: _LineParser, value: str) -> tuple[str, ...]:
    return tuple(_parse_id(lp, part) for part in value.split(","))


def _parse_ref(lp: _LineParser, value: str) -> LimitRef | None:
    if ":" not in value:
        lp.fail(value, f"limit reference needs a sing:/orbit:/set: prefix, got {value!r}")
        return None
    prefix, rest = value.split(":", 1)
    if prefix == "sing":
        return LimitRef.sing(_parse_id(lp, rest))
    if prefix == "orbit":
        return LimitRef.orbit(_parse_id(lp, rest))
    if prefix == "set":
        return LimitRef.of_set(_parse_id_list(lp, rest))
    lp.fail(value, f"unknown reference kind {prefix!r}")
    return None


def _enum_value(lp: _LineParser, enum_cls, value: str, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        lp.fail(value, f"unknown {what} {value!r} (one of: {choices})")
        return None


def parse(text: str) -> FlowComplex:
    """Parse a document; raises ``ParseErrors`` carrying every syntax error found."""
    errors: list[ParseError] = []
    surface: SurfaceInfo | None = None
    surface_seen = False
    seen_ids: dict[str, int] = {}
    sing: list[SingularSet] = []
    orbits: list[OrbitClass] = []
    families: list[Family] = []
    schemas: list[AccumulationSchema] = []
    decls: list[SaddleSetDecl] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lp = _LineParser(lineno, raw)
        tokens = line.split()
        head = tokens[0]

        if not surface_seen and head != "surface":
            lp.fail(head, "the first record must be a surface line")
            surface_seen = True  # report once, keep collecting other errors

        if head == "surface":
            if surface is not None:
                lp.fail(head, "duplicate surface record")
            surface_seen = True
            fields = _split_fields(lp, tokens[1:], frozenset({"genus", "orientable", "boundary"}))
            missing = {"genus", "orientable", "boundary"} - set(fields)
            for key in sorted(missing):
                lp.fail(head, f"surface record is missing {key}")
            if not lp.errors:
                genus = _parse_int(lp, "genus", fields["genus"])
                orientable = _parse_bool(lp, "orientable", fields["orientable"])
                boundary = _parse_int(lp, "boundary", fields["boundary"])
                if genus < 0:
                    lp.fail(fields["genus"], "genus must be non-negative")
                if boundary < 0:
                    lp.fail(fields["boundary"], "boundary must be non-negative")
                if not lp.errors:
                    surface = SurfaceInfo(genus, orientable, boundary)
            errors.extend(lp.errors)
            continue

        if head not in ("sing", "orbit", "family", "accum", "saddleset"):
            lp.fail(head, f"unknown record kind {head!r}")
            errors.extend(lp.errors)
            continue
        if len(tokens) < 2:
            lp.fail(head, f"{head} record needs an identifier")
            errors.extend(lp.errors)
            continue
        rid = _parse_id(lp, tokens[1])
        if rid in seen_ids:
            lp.fail(tokens[1], f"duplicate id {rid!r} (first declared on line {seen_ids[rid]})")
        else:
            seen_ids[rid] = lineno

        if head == "sing":
            if len(tokens) < 3:
                lp.fail(head, "sing record needs a shape")
                errors.extend(lp.errors)
                continue
            shape = _enum_value(lp, Shape, tokens[2], "shape")
            fields = _split_fields(lp, tokens[3:], frozenset({"kind"}))
            kind = None
            if shape is Shape.POINT:
                if "kind" not in fields:
                    lp.fail(tokens[2], "point singularities need kind=")
                else:
                    kind = _enum_value(lp, PointKind, fields["kind"], "point kind")
            elif "kind" in fields:
                lp.fail(fields["kind"], "arc/circle singular sets take no kind")
            if not lp.errors and shape is not None:
                sing.append(SingularSet(rid, shape, kind))

        elif head == "orbit":
            if len(tokens) < 3:
                lp.fail(head, "orbit record needs a kind")
                errors.extend(lp.errors)
                continue
            kind = _enum_value(lp, OrbitKind, tokens[2], "orbit kind")
            fields = _split_fields(lp, tokens[3:], frozenset({"alpha", "omega", "closure"}))
            alpha = _parse_ref(lp, fields["alpha"]) if "alpha" in fields else None
            omega = _parse_ref(lp, fields["omega"]) if "omega" in fields else None
            closure = frozenset(_parse_id_list(lp, fields["closure"])) if "closure" in fields else None
            if not lp.errors and kind is not None:
                orbits.append(OrbitClass(rid, kind, alpha=alpha, omega=omega, closure_decl=closure))

        elif head == "family":
            fields = _split_fields(
                lp, tokens[2:], frozenset({"kind", "b0", "b1", "shrinks0", "shrinks1"})
            )
            for key in sorted({"kind", "b0", "b1"} - set(fields)):
                lp.fail(head, f"family record is missing {key}")
            if not lp.errors:
                kind = _enum_value(lp, FamilyKind, fields["kind"], "family kind")
                b0 = frozenset(_parse_id_list(lp, fields["b0"]))
                b1 = frozenset(_parse_id_list(lp, fields["b1"]))
                s0 = _parse_bool(lp, "shrinks0", fields["shrinks0"]) if "shrinks0" in fields else False
                s1 = _parse_bool(lp, "shrinks1", fields["shrinks1"]) if "shrinks1" in fields else False
                if not lp.errors and kind is not None:
                    families.append(Family(rid, kind, b0, b1, s0, s1))

        elif head == "accum":
            fields = _split_fields(lp, tokens[2:], frozenset({"kind", "samples", "target"}))
            for key in sorted({"kind", "samples", "target"} - set(fields)):
                lp.fail(head, f"accum record is missing {key}")
            if not lp.errors:
                kind = _enum_value(lp, SchemaKind, fields["kind"], "schema kind")
                samples = _parse_id_list(lp, fields["samples"])
                target = frozenset(_parse_id_list(lp, fields["target"]))
                if not lp.errors and kind is not None:
                    schemas.append(AccumulationSchema(rid, kind, samples, target))

        else:  # saddleset
            fields = _split_fields(lp, tokens[2:], frozenset({"members", "isolated"}))
            for key in sorted({"members", "isolated"} - set(fields)):
                lp.fail(head, f"saddleset record is missing {key}")
            if not lp.errors:
                members = frozenset(_parse_id_list(lp, fields["members"]))
                isolated = _parse_bool(lp, "isolated", fields["isolated"])
                if not lp.errors:
                    decls.append(SaddleSetDecl(rid, members, isolated))

        errors.extend(lp.errors)

    if surface is None and not any("surface" in e.message for e in errors):
        errors.append(ParseError(1, 1, "missing surface record"))
    if errors:
        raise ParseErrors(errors)
    assert surface is not None
    return FlowComplex(
        surface,
        tuple(sorted(sing, key=lambda r: r.id)),
        tuple(sorted(orbits, key=lambda r: r.id)),
        tuple(sorted(families, key=lambda r: r.id)),
        tuple(sorted(schemas, key=lambda r: r.id)),
        tuple(sorted(decls, key=lambda r: r.id)),
    )


def _emit_ref(ref: LimitRef) -> str:
    if ref.kind is RefKind.SET:
        return "set:" + ",".join(sorted(ref.ids))
    return f"{ref.kind.value}:{ref.ids[0]}"


def _emit_ids(ids) -> str:
    return ",".join(sorted(ids))


def emit(fc: FlowComplex) -> str:
    """Canonical serialization: deterministic and byte-identical for equal complexes."""
    s = fc.surface
    lines = [f"surface genus={s.genus} orientable={str(s.orientable).lower()} boundary={s.boundary_components}"]
    for sg in sorted(fc.singular_sets, key=lambda r: r.id):
        if sg.shape is Shape.POINT:
            lines.append(f"sing {sg.id} point kind={sg.kind.value}")
        else:
            lines.append(f"sing {sg.id} {sg.shape.value}")
    for o in sorted(fc.orbit_classes, key=lambda r: r.id):
        parts = [f"orbit {o.id} {o.kind.value}"]
        if o.alpha is not None:
            parts.append(f"alpha={_emit_ref(o.alpha)}")
        if o.omega is not None:
            parts.append(f"omega={_emit_ref(o.omega)}")
        if o.closure_decl is not None:
            parts.append(f"closure={_emit_ids(o.closure_decl)}")
        lines.append(" ".join(parts))
    for f in sorted(fc.families, key=lambda r: r.id):
        parts = [f"family {f.id} kind={f.kind.value} b0={_emit_ids(f.boundary0)} b1={_emit_ids(f.boundary1)}"]
        if f.shrinks0:
            parts.append("shrinks0=true")
        if f.shrinks1:
            parts.append("shrinks1=true")
        lines.append(" ".join(parts))
    for a in sorted(fc.accumulation_schemas, key=lambda r: r.id):
        lines.append(
            f"accum {a.id} kind={a.kind.value} samples={','.join(a.samples)} target={_emit_ids(a.target)}"
        )
    for d in sorted(fc.saddle_set_decls, key=lambda r: r.id):
        lines.append(
            f"saddleset {d.id} members={_emit_ids(d.members)} isolated={str(d.isolated).lower()}"
        )
    return "\n".join(lines) + "\n"
