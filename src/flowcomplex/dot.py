"""DOT digraph export of a flow complex, with optional extension overlay."""

from __future__ import annotations

from typing import Optional

from .model import KIND_TEXT, POINT, SET_REF, FlowComplex, PointKind, PreconditionError, SingularSet, require_complex
from .orbits import ExtendedOrbitSet

_POINT_SHAPES = {
    PointKind.CENTER: "circle",
    PointKind.SADDLE: "diamond",
    PointKind.SINK: "invtriangle",
    PointKind.SOURCE: "triangle",
    PointKind.OTHER: "doublecircle",
}


def _singular_node(s: SingularSet) -> tuple[str, str, str]:
    if s.shape is not POINT:
        return s.id, "box", KIND_TEXT[s.shape]
    return s.id, _POINT_SHAPES[s.kind], KIND_TEXT[s.kind]


def export_dot(fc: FlowComplex, overlay: Optional[ExtendedOrbitSet] = None) -> str:
    """Nodes are singular sets (shape by kind), orbit classes and families;
    edges follow the flow through limit references, and dotted undirected
    edges tie families to their boundaries.  Overlay members are highlighted."""
    require_complex(fc, "export_dot")
    if overlay is not None and not isinstance(overlay, ExtendedOrbitSet):
        raise PreconditionError(f"export_dot's overlay is an ExtendedOrbitSet, not {type(overlay).__name__}")
    mark = overlay.members if overlay is not None else frozenset()
    lines = ["digraph flow_complex {", '  rankdir="LR";']
    # (id, shape, second label line) of each record, kind by kind in id order
    nodes = [_singular_node(s) for s in fc.singular_sets]
    nodes += [(o.id, "ellipse", KIND_TEXT[o.kind]) for o in fc.orbit_classes]
    nodes += [(f.id, "box3d", KIND_TEXT[f.kind]) for f in fc.families]
    for nid, shape, label in nodes:
        attrs = [f"shape={shape}", f'label="{nid}\\n{label}"']
        if nid in mark:
            attrs += ["penwidth=3", 'color="firebrick"']
        lines.append(f'  "{nid}" [{", ".join(attrs)}];')

    for o in fc.orbit_classes:
        for ref, into in ((o.alpha, True), (o.omega, False)):
            if ref is None:
                continue
            style = " [style=dashed]" if ref.kind is SET_REF else ""
            for t in ref.ids:
                tail, head = (t, o.id) if into else (o.id, t)
                lines.append(f'  "{tail}" -> "{head}"{style};')
    try:  # the one sort of ids
        for f in fc.families:
            for bset, _ in f.boundaries():
                for b in sorted(bset):
                    lines.append(f'  "{f.id}" -> "{b}" [style=dotted, dir=none];')
    except TypeError as exc:  # an id that is not a str, in a record made directly
        raise PreconditionError(f"export_dot takes a complex whose ids are strs: {exc}") from None
    lines.append("}")
    return "\n".join(lines) + "\n"
