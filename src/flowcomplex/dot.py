"""DOT digraph export of a flow complex, with optional extension overlay."""

from __future__ import annotations

from typing import Optional

from .model import FlowComplex, PointKind, PreconditionError, RefKind, Shape, SingularSet
from .orbits import ExtendedOrbitSet

_POINT_SHAPES = {
    PointKind.CENTER: "circle",
    PointKind.SADDLE: "diamond",
    PointKind.SINK: "invtriangle",
    PointKind.SOURCE: "triangle",
    PointKind.OTHER: "doublecircle",
}


def _singular_node(s: SingularSet) -> tuple[str, str, str]:
    if s.shape is not Shape.POINT:
        return s.id, "box", s.shape.value
    if s.kind is None:
        raise PreconditionError(f"point singularity {s.id!r} has no kind")
    return s.id, _POINT_SHAPES[s.kind], s.kind.value


def export_dot(fc: FlowComplex, overlay: Optional[ExtendedOrbitSet] = None) -> str:
    """Nodes are singular sets (shape by kind), orbit classes and families;
    edges follow the flow through limit references, and dotted undirected
    edges tie families to their boundaries.  Overlay members are highlighted."""
    mark = overlay.members if overlay is not None else frozenset()
    lines = ["digraph flow_complex {", '  rankdir="LR";']
    # (id, shape, second label line) of each record, kind by kind in id order
    nodes = [_singular_node(s) for s in sorted(fc.singular_sets, key=lambda r: r.id)]
    nodes += [(o.id, "ellipse", o.kind.value) for o in sorted(fc.orbit_classes, key=lambda r: r.id)]
    nodes += [(f.id, "box3d", f.kind.value) for f in sorted(fc.families, key=lambda r: r.id)]
    for nid, shape, label in nodes:
        attrs = [f"shape={shape}", f'label="{nid}\\n{label}"']
        if nid in mark:
            attrs += ["penwidth=3", 'color="firebrick"']
        lines.append(f'  "{nid}" [{", ".join(attrs)}];')

    for o in sorted(fc.orbit_classes, key=lambda r: r.id):
        for ref, into in ((o.alpha, True), (o.omega, False)):
            if ref is None:
                continue
            style = " [style=dashed]" if ref.kind is RefKind.SET else ""
            for t in sorted(ref.ids):
                tail, head = (t, o.id) if into else (o.id, t)
                lines.append(f'  "{tail}" -> "{head}"{style};')
    for f in sorted(fc.families, key=lambda r: r.id):
        for bset, _ in f.boundaries():
            for b in sorted(bset):
                lines.append(f'  "{f.id}" -> "{b}" [style=dotted, dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
