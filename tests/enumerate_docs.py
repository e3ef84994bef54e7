"""Every small flow complex up to a bound, each once up to renaming.

The bound:

- a closed sphere, torus, projective plane or Klein bottle;
- 0-2 point singularities, each a center, saddle, sink or source;
- 0-2 orbit classes, each periodic or proper with a ``sing:`` limit at
  both ends;
- at most one periodic annulus, whose two boundaries are each one of those
  singularities or classes.  It shrinks exactly onto a singularity: every
  other choice of flags fails ``validate``'s ``shrink-boundary-not-point``
  or ``point-boundary-needs-shrink``.

A complex is described by a small tuple (``Doc`` below).  Renaming the
singularities or the classes among themselves, or swapping the two sides
of the annulus, gives the same flow; each flow is yielded once, from the
least tuple among its renamings.  Ids follow the tuple: singularities
``s1``, ``s2``, then classes ``o1``, ``o2``, then the annulus ``f1``, so
the ids are named in order of first use.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from flowcomplex import Family, FamilyKind, FlowComplex, LimitRef, OrbitClass, OrbitKind, PointKind, Shape, SingularSet, SurfaceInfo

SURFACES = {
    "sphere": SurfaceInfo(0, True, 0),
    "torus": SurfaceInfo(1, True, 0),
    "projective plane": SurfaceInfo(1, False, 0),
    "Klein bottle": SurfaceInfo(2, False, 0),
}
KINDS = tuple(kind.value for kind in PointKind if kind is not PointKind.OTHER)

# (surface name, singularity kinds, classes, annulus): a class is () for a
# periodic orbit or its (alpha, omega) singularity indices for a proper one;
# an annulus is () for none or its two boundaries, each ("s", singularity
# index) or ("o", class index)
Class = tuple[int, ...]
Boundary = tuple[str, int]
Doc = tuple[str, tuple[str, ...], tuple[Class, ...], tuple[Boundary, ...]]


def _renamed(doc: Doc, sings: tuple[int, ...], classes: tuple[int, ...]) -> Doc:
    """``doc`` with singularity ``i`` renamed ``sings[i]`` and class ``k``
    renamed ``classes[k]``, in canonical order: sides of the annulus sorted."""
    surface, kinds, orbits, annulus = doc
    new_kinds = [""] * len(kinds)
    for i, kind in enumerate(kinds):
        new_kinds[sings[i]] = kind
    new_orbits: list[Class] = [()] * len(orbits)
    for k, ends in enumerate(orbits):
        new_orbits[classes[k]] = tuple(sings[i] for i in ends)
    index = {"s": sings, "o": classes}
    annulus = tuple(sorted((tag, index[tag][i]) for tag, i in annulus))
    return surface, tuple(new_kinds), tuple(new_orbits), annulus


def _canonical(doc: Doc) -> bool:
    """Whether ``doc`` is the least of its renamings."""
    _, kinds, orbits, _ = doc
    return all(
        doc <= _renamed(doc, sings, classes)
        for sings in permutations(range(len(kinds)))
        for classes in permutations(range(len(orbits)))
    )


def docs() -> Iterator[Doc]:
    """Every canonical document within the bound."""
    for surface in SURFACES:
        for n_sings in range(3):
            for kinds in product(KINDS, repeat=n_sings):
                class_options: list[Class] = [(), *product(range(n_sings), repeat=2)]
                for n_classes in range(3):
                    for orbits in product(class_options, repeat=n_classes):
                        bounds = [("s", i) for i in range(n_sings)] + [("o", k) for k in range(n_classes)]
                        for annulus in [(), *((a, b) for a, b in product(bounds, repeat=2) if a <= b)]:
                            doc = (surface, kinds, tuple(orbits), annulus)
                            if _canonical(doc):
                                yield doc


def complex_of(doc: Doc) -> FlowComplex:
    """The complex that ``doc`` describes, with its ids named as above."""
    surface, kinds, orbits, annulus = doc
    sings = [f"s{i + 1}" for i in range(len(kinds))]
    ids = {"s": sings, "o": [f"o{k + 1}" for k in range(len(orbits))]}
    classes = [
        OrbitClass(oid, OrbitKind.PERIODIC)
        if not ends
        else OrbitClass(oid, OrbitKind.PROPER, LimitRef.sing(sings[ends[0]]), LimitRef.sing(sings[ends[1]]))
        for oid, ends in zip(ids["o"], orbits)
    ]
    families = []
    if annulus:
        (tag0, i0), (tag1, i1) = annulus
        b0, b1 = frozenset({ids[tag0][i0]}), frozenset({ids[tag1][i1]})
        families.append(Family("f1", FamilyKind.PERIODIC_ANNULUS, b0, b1, tag0 == "s", tag1 == "s"))
    return FlowComplex.build(
        SURFACES[surface],
        singular_sets=[SingularSet(sid, Shape.POINT, PointKind(kind)) for sid, kind in zip(sings, kinds)],
        orbit_classes=classes,
        families=families,
    )
