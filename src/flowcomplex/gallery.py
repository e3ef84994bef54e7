"""Deterministic constructors for the reference flows.

Each entry builds the symbolic presentation of one concrete flow, with the
internal wiring (which separatrix lands in which saddle slot) fixed and
documented so derived values are reproducible.  Flows with infinitely many
repeating pieces are truncated at a parameter ``n`` and carry an
accumulation schema describing the omitted tail; expected verdicts are
stated for the truncation-plus-schema object.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Mapping

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
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
    value_class,
)


class GalleryError(FlowComplexError, ValueError):
    """Unknown entry name or out-of-range parameters."""


def _point(pid: str, kind: PointKind) -> SingularSet:
    return SingularSet(pid, Shape.POINT, kind)


def _center(pid: str) -> SingularSet:
    return _point(pid, PointKind.CENTER)


def _saddle(pid: str) -> SingularSet:
    return _point(pid, PointKind.SADDLE)


def _proper(oid: str, alpha: LimitRef, omega: LimitRef) -> OrbitClass:
    return OrbitClass(oid, OrbitKind.PROPER, alpha=alpha, omega=omega)


def _periodic(oid: str) -> OrbitClass:
    return OrbitClass(oid, OrbitKind.PERIODIC)


def _annulus(fid: str, b0, b1, shrinks0: bool = False, shrinks1: bool = False) -> Family:
    return Family(fid, FamilyKind.PERIODIC_ANNULUS, frozenset(b0), frozenset(b1), shrinks0, shrinks1)


def sphere_meridian() -> FlowComplex:
    """Sphere flow with one degenerate equatorial fixed point.

    The fixed points are ``q`` on the equator and the two poles ``n``,
    ``s`` (centers).  The equator minus ``q`` is a single proper orbit ``m``
    with both ends at ``q``; every other orbit is a horizontal circle, one
    family per hemisphere, shrinking onto its pole and accumulating on the
    full equator from the other side.
    """
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=0),
        singular_sets=[_point("q", PointKind.OTHER), _center("n"), _center("s")],
        orbit_classes=[_proper("m", LimitRef.sing("q"), LimitRef.sing("q"))],
        families=[
            _annulus("fn", {"m", "q"}, {"n"}, shrinks1=True),
            _annulus("fs", {"m", "q"}, {"s"}, shrinks1=True),
        ],
    )


def _torus_blowup_pair(irrational1: bool, irrational2: bool, generic_leaves: int = 1) -> FlowComplex:
    """Genus-two surface glued from two blown-up torus flows.

    Removing a point from a torus flow and completing the metric turns the
    point into a boundary circle with two fixed ends: orbits arrive at the
    in-point and emanate from the out-point, and both boundary arcs flow
    from in to out.  Gluing two such completions end-to-end yields the
    junction circle: saddles ``s1`` (glued in-points) and ``s2`` (glued
    out-points) joined by arcs ``c1``, ``c2`` flowing ``s1 -> s2``.

    On an irrational side ``i`` the split orbit leaves two dense
    semi-proper leaves, ``u<i>`` emanating from ``s2`` and ``w<i>``
    terminating at ``s1``, plus ``generic_leaves`` fully dense leaves
    ``g<i>k``; the whole side shares one closure.  On a rational side the
    split periodic orbit becomes a single arc ``a<i>`` from ``s2`` to
    ``s1`` and the rest of the side is a periodic annulus whose two ends
    accumulate on the split circle through opposite junction arcs.

    Saddle slots: stable of ``s1`` = the two terminating pieces, unstable
    of ``s1`` = ``c1, c2``; stable of ``s2`` = ``c1, c2``, unstable of
    ``s2`` = the two emanating pieces.
    """
    sing = [_saddle("s1"), _saddle("s2")]
    junction = frozenset({"s1", "s2", "c1", "c2"})
    orbits = [
        _proper("c1", LimitRef.sing("s1"), LimitRef.sing("s2")),
        _proper("c2", LimitRef.sing("s1"), LimitRef.sing("s2")),
    ]
    families = []
    for idx, irrational in ((1, irrational1), (2, irrational2)):
        if irrational:
            side = {f"u{idx}", f"w{idx}"} | {f"g{idx}{k}" for k in range(1, generic_leaves + 1)}
            decl = frozenset(side) | junction
            orbits.append(
                OrbitClass(f"u{idx}", OrbitKind.LOCALLY_DENSE, alpha=LimitRef.sing("s2"), closure_decl=decl)
            )
            orbits.append(
                OrbitClass(f"w{idx}", OrbitKind.LOCALLY_DENSE, omega=LimitRef.sing("s1"), closure_decl=decl)
            )
            for k in range(1, generic_leaves + 1):
                orbits.append(OrbitClass(f"g{idx}{k}", OrbitKind.LOCALLY_DENSE, closure_decl=decl))
        else:
            orbits.append(_proper(f"a{idx}", LimitRef.sing("s2"), LimitRef.sing("s1")))
            families.append(
                _annulus(f"f{idx}", {f"a{idx}", "s1", "s2", "c1"}, {f"a{idx}", "s1", "s2", "c2"})
            )
    return FlowComplex.build(
        SurfaceInfo(genus=2, orientable=True, boundary_components=0),
        singular_sets=sing,
        orbit_classes=orbits,
        families=families,
    )


def genus2_mixed() -> FlowComplex:
    """Dense torus side glued to a periodic torus side across a two-saddle junction."""
    return _torus_blowup_pair(irrational1=True, irrational2=False)


def genus2_double_irrational() -> FlowComplex:
    """Two dense torus sides glued across a two-saddle junction."""
    return _torus_blowup_pair(irrational1=True, irrational2=True)


def nested_saddles_disk(n: int = 3) -> FlowComplex:
    """Disk flow whose core is a chain of tangent circles converging to the origin.

    Circle ``k`` touches circle ``k+1`` at a saddle ``p<k>``; the circles
    rotate consistently, so the outermost circle is a loop ``a1`` based at
    ``p1``, each middle circle splits into arcs ``u<k>`` (toward the
    outside) and ``l<k>`` (toward the origin), and the truncated innermost
    circle is a loop ``an`` at the last saddle.  Each circle bounds a
    center disk; the rest of the disk is one periodic annulus from the
    boundary circle ``bd`` accumulating on the whole chain and the origin
    ``o``, a fixed point that is not a saddle.  The saddle-chain schema
    declares that the circle pattern continues to the origin.
    """
    if n < 2:
        raise GalleryError("nested_saddles_disk needs n >= 2")
    sing = [_point("o", PointKind.OTHER)] + [_saddle(f"p{k}") for k in range(1, n)]
    orbits = [_periodic("bd"), _proper("a1", LimitRef.sing("p1"), LimitRef.sing("p1"))]
    chain: set[str] = {"a1"} | {f"p{k}" for k in range(1, n)}
    circle_sets: list[set[str]] = [{"a1", "p1"}]
    for k in range(2, n):
        orbits.append(_proper(f"u{k}", LimitRef.sing(f"p{k}"), LimitRef.sing(f"p{k - 1}")))
        orbits.append(_proper(f"l{k}", LimitRef.sing(f"p{k - 1}"), LimitRef.sing(f"p{k}")))
        chain |= {f"u{k}", f"l{k}"}
        circle_sets.append({f"u{k}", f"l{k}", f"p{k - 1}", f"p{k}"})
    last = f"a{n}"
    orbits.append(_proper(last, LimitRef.sing(f"p{n - 1}"), LimitRef.sing(f"p{n - 1}")))
    chain.add(last)
    circle_sets.append({last, f"p{n - 1}"})
    families = [_annulus("fo", {"bd"}, chain | {"o"})]
    sing_extra = []
    for k, circle in enumerate(circle_sets, start=1):
        sing_extra.append(_center(f"c{k}"))
        families.append(_annulus(f"cf{k}", circle, {f"c{k}"}, shrinks1=True))
    schema = AccumulationSchema(
        "chain",
        SchemaKind.SADDLE_CHAIN,
        samples=(f"p{n - 1}", last),
        target=frozenset({"o"}),
    )
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=1),
        singular_sets=sing + sing_extra,
        orbit_classes=orbits,
        families=families,
        accumulation_schemas=[schema],
    )


def double_center_sphere(n: int = 2) -> FlowComplex:
    """Sphere flow with two degenerate fixed points ringed by saddle eyes.

    Around each pole, periodic circles are interrupted by ``n`` eyes: a
    saddle ``<p>sd<k>`` carrying two homoclinic loops, an outer one
    ``<p>lo<k>`` and an inner one ``<p>li<k>`` (tangent circles around the
    pole), with the crescent between them a periodic family around a
    center ``<p>ec<k>``.  Annuli of periodic orbits join the equator to
    the first eye and consecutive eyes to each other; beyond the last eye
    a region of closed invariant sets shrinks onto the pole, and a
    singularity sequence records the saddles marching into it.  Every
    extended orbit here is compact, so each pole has a punctured
    neighborhood of compact extended orbits and centers.
    """
    if n < 1:
        raise GalleryError("double_center_sphere needs n >= 1")
    sing: list[SingularSet] = []
    orbits = [_periodic("eq")]
    families = []
    schemas = []
    for pole in ("n", "s"):
        sing.append(_point(f"p{pole}", PointKind.OTHER))
        prev_inner: set[str] = {"eq"}
        for k in range(1, n + 1):
            sd, lo, li, ec = (f"{pole}sd{k}", f"{pole}lo{k}", f"{pole}li{k}", f"{pole}ec{k}")
            sing.extend([_saddle(sd), _center(ec)])
            orbits.append(_proper(lo, LimitRef.sing(sd), LimitRef.sing(sd)))
            orbits.append(_proper(li, LimitRef.sing(sd), LimitRef.sing(sd)))
            families.append(_annulus(f"{pole}af{k - 1}", prev_inner, {sd, lo}))
            families.append(_annulus(f"{pole}cf{k}", {sd, lo, li}, {ec}, shrinks1=True))
            prev_inner = {sd, li}
        families.append(
            Family(
                f"{pole}tf",
                FamilyKind.CLOSED_EXTENDED_REGION,
                frozenset(prev_inner),
                frozenset({f"p{pole}"}),
                shrinks1=True,
            )
        )
        schemas.append(
            AccumulationSchema(
                f"{pole}acc",
                SchemaKind.SINGULARITY_SEQUENCE,
                samples=tuple(f"{pole}sd{k}" for k in range(1, n + 1)),
                target=frozenset({f"p{pole}"}),
            )
        )
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=0),
        singular_sets=sing,
        orbit_classes=orbits,
        families=families,
        accumulation_schemas=schemas,
    )


def sphere_limit_cycle() -> FlowComplex:
    """Sphere flow with an attracting-repelling periodic orbit.

    Orbits spiral from the source ``so`` onto the periodic orbit ``g`` and
    from ``g`` into the sink ``si``; the spirals make ``g`` a limit set of
    points outside it, and each spiral is its own extension and wanders.
    """
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=0),
        singular_sets=[_point("so", PointKind.SOURCE), _point("si", PointKind.SINK)],
        orbit_classes=[
            _periodic("g"),
            _proper("u", LimitRef.sing("so"), LimitRef.orbit("g")),
            _proper("w", LimitRef.orbit("g"), LimitRef.sing("si")),
        ],
    )


def plus_saddle() -> FlowComplex:
    """Gradient-like sphere flow around a single saddle.

    One source ``so`` feeds the two stable separatrices ``a``, ``b``; the
    two unstable separatrices ``c``, ``d`` drain into the sinks ``si1``,
    ``si2``, as do the generic orbits ``r1``, ``r2``.  Extension from a
    stable separatrix picks up the unstable pair but not conversely, which
    is the standard witness that extension membership is not transitive.
    """
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=0),
        singular_sets=[
            _point("so", PointKind.SOURCE),
            _point("si1", PointKind.SINK),
            _point("si2", PointKind.SINK),
            _saddle("s"),
        ],
        orbit_classes=[
            _proper("a", LimitRef.sing("so"), LimitRef.sing("s")),
            _proper("b", LimitRef.sing("so"), LimitRef.sing("s")),
            _proper("c", LimitRef.sing("s"), LimitRef.sing("si1")),
            _proper("d", LimitRef.sing("s"), LimitRef.sing("si2")),
            _proper("r1", LimitRef.sing("so"), LimitRef.sing("si1")),
            _proper("r2", LimitRef.sing("so"), LimitRef.sing("si2")),
        ],
    )


def halfdisk_sphere() -> FlowComplex:
    """Sphere flow with a fixed diameter, built from a half-disk pattern.

    The segment ``seg`` between the poles ``pp`` and ``pm`` is fixed.  On
    the right of it every orbit runs from ``pm`` to ``pp`` (interior
    representative ``rp``, boundary arc ``rb``); on the left everything
    runs back from ``pp`` to ``pm`` (``lp``, ``lb``).  A center disk
    pasted along the outer circle closes the sphere: its periodic family
    ``pd`` accumulates on the two boundary arcs and the poles.  The poles
    are declared isolated saddle sets: the pasted periodic orbits graze
    them and leave, and nothing else accumulates minimal sets onto them.
    """
    pp, pm = LimitRef.sing("pp"), LimitRef.sing("pm")
    return FlowComplex.build(
        SurfaceInfo(genus=0, orientable=True, boundary_components=0),
        singular_sets=[
            _point("pp", PointKind.OTHER),
            _point("pm", PointKind.OTHER),
            SingularSet("seg", Shape.ARC),
            _center("c"),
        ],
        orbit_classes=[
            _proper("rp", pm, pp),
            _proper("rb", pm, pp),
            _proper("lp", pp, pm),
            _proper("lb", pp, pm),
        ],
        families=[_annulus("pd", {"rb", "lb", "pp", "pm"}, {"c"}, shrinks1=True)],
        saddle_set_decls=[
            SaddleSetDecl("ssp", frozenset({"pp"}), isolated=True),
            SaddleSetDecl("ssm", frozenset({"pm"}), isolated=True),
        ],
    )


def comb_torus(n: int = 3) -> FlowComplex:
    """Torus foliated by vertical circles with a converging row of pinched ones.

    ``n`` circles are pinched at fixed points ``q1 .. qn`` (each circle
    minus its point is the orbit ``z1 .. zn``), and the row of pinch
    points converges to ``q0`` on the limit circle ``z0``.  Periodic
    annuli fill the gaps between consecutive pinched circles and close up
    around the back of the torus.  ``{q0}`` passes the grazed-and-left
    criterion (nearby periodic circles) but the singularity sequence
    denies it isolation, so it is declared non-isolated and extension
    never opens at it.
    """
    if n < 2:
        raise GalleryError("comb_torus needs n >= 2")
    sing = [_point(f"q{k}", PointKind.OTHER) for k in range(n + 1)]
    orbits = [
        _proper(f"z{k}", LimitRef.sing(f"q{k}"), LimitRef.sing(f"q{k}")) for k in range(n + 1)
    ]
    families = [_annulus("fam0", {"q0", "z0"}, {"q1", "z1"})]
    for k in range(1, n):
        families.append(_annulus(f"fam{k}", {f"q{k}", f"z{k}"}, {f"q{k + 1}", f"z{k + 1}"}))
    families.append(_annulus(f"fam{n}", {f"q{n}", f"z{n}"}, {"q0", "z0"}))
    schema = AccumulationSchema(
        "teeth",
        SchemaKind.SINGULARITY_SEQUENCE,
        samples=tuple(f"q{k}" for k in range(1, n + 1)),
        target=frozenset({"q0"}),
    )
    return FlowComplex.build(
        SurfaceInfo(genus=1, orientable=True, boundary_components=0),
        singular_sets=sing,
        orbit_classes=orbits,
        families=families,
        accumulation_schemas=[schema],
        saddle_set_decls=[SaddleSetDecl("ss0", frozenset({"q0"}), isolated=False)],
    )


@value_class
class GalleryEntry:
    """One named constructor with its expected partial classification."""

    name: str
    build: Callable[..., FlowComplex]
    params: Mapping[str, int] = field(default_factory=dict)
    expected: Mapping[str, bool] = field(default_factory=dict)


GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        "sphere_meridian",
        sphere_meridian,
        expected={"non_wandering": True, "extended_recurrent": False, "regular": False},
    ),
    GalleryEntry(
        "genus2_mixed",
        genus2_mixed,
        expected={"extended_recurrent": True, "recurrent": False, "non_wandering": True, "regular": True},
    ),
    GalleryEntry(
        "nested_saddles_disk",
        nested_saddles_disk,
        params={"n": 3},
        expected={"extended_recurrent": True, "non_wandering": True, "regular": False},
    ),
    GalleryEntry(
        "genus2_double_irrational",
        genus2_double_irrational,
        expected={"extended_recurrent": True, "extended_pap": False, "non_wandering": True, "regular": True},
    ),
    GalleryEntry(
        "double_center_sphere",
        double_center_sphere,
        params={"n": 2},
        expected={"extended_r_closed": True, "extended_pap": True, "extended_recurrent": True, "non_wandering": True},
    ),
    GalleryEntry(
        "sphere_limit_cycle",
        sphere_limit_cycle,
        expected={"non_wandering": False, "extended_recurrent": False},
    ),
    GalleryEntry(
        "plus_saddle",
        plus_saddle,
        expected={"non_wandering": False},
    ),
    GalleryEntry(
        "halfdisk_sphere",
        halfdisk_sphere,
        expected={"non_wandering": False, "generalized_recurrent": True, "extended_recurrent": False},
    ),
    GalleryEntry(
        "comb_torus",
        comb_torus,
        params={"n": 3},
        expected={"non_wandering": True, "generalized_recurrent": False, "extended_recurrent": False},
    ),
)

GALLERY_BY_NAME: Mapping[str, GalleryEntry] = {e.name: e for e in GALLERY}


def gallery_names() -> tuple[str, ...]:
    return tuple(e.name for e in GALLERY)


def build(name: str, params: Mapping[str, int] | None = None) -> FlowComplex:
    """Construct a gallery flow by name; parameters outside the documented
    range (or unknown to the entry) are errors."""
    try:
        entry = GALLERY_BY_NAME.get(name)
    except TypeError:  # unhashable, such as a list
        entry = None
    if entry is None:
        raise GalleryError(f"unknown gallery entry {name!r}")
    try:
        params = dict(params or {})
    except (TypeError, ValueError):
        raise GalleryError(f"{name} parameters are a mapping of names to ints, not {params!r}") from None
    unknown = set(params) - set(entry.params)
    if unknown:
        raise GalleryError(f"{name} does not take parameters {sorted(unknown)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise GalleryError(f"{name} parameter {key!r} must be an int, not {value!r}")
    merged = {**entry.params, **params}
    return entry.build(**merged)
