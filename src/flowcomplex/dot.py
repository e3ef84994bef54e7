"""DOT digraph export of a flow complex, with optional extension overlay."""

from __future__ import annotations

from typing import Optional

from .model import FlowComplex, PointKind, PreconditionError, RefKind, Shape
from .orbits import ExtendedOrbitSet

_POINT_SHAPES = {
    PointKind.CENTER: "circle",
    PointKind.SADDLE: "diamond",
    PointKind.SINK: "invtriangle",
    PointKind.SOURCE: "triangle",
    PointKind.OTHER: "doublecircle",
}


def export_dot(fc: FlowComplex, overlay: Optional[ExtendedOrbitSet] = None) -> str:
    """Nodes are singular sets (shape by kind), orbit classes and families;
    edges follow the flow through limit references, and dotted undirected
    edges tie families to their boundaries.  Overlay members are highlighted."""
    mark = overlay.members if overlay is not None else frozenset()
    lines = ["digraph flow_complex {", '  rankdir="LR";']
    for s in sorted(fc.singular_sets, key=lambda r: r.id):
        if s.shape is Shape.POINT and s.kind is None:
            raise PreconditionError(f"point singularity {s.id!r} has no kind")
        shape = _POINT_SHAPES[s.kind] if s.shape is Shape.POINT else "box"
        label = s.kind.value if s.shape is Shape.POINT else s.shape.value
        attrs = [f"shape={shape}", f'label="{s.id}\\n{label}"']
        if s.id in mark:
            attrs += ["penwidth=3", 'color="firebrick"']
        lines.append(f'  "{s.id}" [{", ".join(attrs)}];')
    for o in sorted(fc.orbit_classes, key=lambda r: r.id):
        attrs = ["shape=ellipse", f'label="{o.id}\\n{o.kind.value}"']
        if o.id in mark:
            attrs += ["penwidth=3", 'color="firebrick"']
        lines.append(f'  "{o.id}" [{", ".join(attrs)}];')
    for f in sorted(fc.families, key=lambda r: r.id):
        attrs = ["shape=box3d", f'label="{f.id}\\n{f.kind.value}"']
        if f.id in mark:
            attrs += ["penwidth=3", 'color="firebrick"']
        lines.append(f'  "{f.id}" [{", ".join(attrs)}];')

    edges: list[str] = []
    for o in sorted(fc.orbit_classes, key=lambda r: r.id):
        if o.alpha is not None:
            style = ' [style=dashed]' if o.alpha.kind is RefKind.SET else ""
            for t in sorted(o.alpha.ids):
                edges.append(f'  "{t}" -> "{o.id}"{style};')
        if o.omega is not None:
            style = ' [style=dashed]' if o.omega.kind is RefKind.SET else ""
            for t in sorted(o.omega.ids):
                edges.append(f'  "{o.id}" -> "{t}"{style};')
    for f in sorted(fc.families, key=lambda r: r.id):
        for bset, _ in f.boundaries():
            for b in sorted(bset):
                edges.append(f'  "{f.id}" -> "{b}" [style=dotted, dir=none];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
