"""Seeded generator of valid flow complexes for property sweeps.

Complexes are assembled from sound building blocks (center disks, saddle
eyes, periodic annuli, dense torus sides, transit disks), so every output
validates and respects the index count on closed regular surfaces by
construction.  Output is a pure function of the seed and size parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    AccumulationSchema,
    Family,
    FamilyKind,
    FlowComplex,
    LimitRef,
    OrbitClass,
    OrbitKind,
    PointKind,
    PreconditionError,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
)
from . import gallery


@dataclass(frozen=True)
class SizeParams:
    """Knobs for generated complexity.

    ``profile`` restricts the kind of flow produced: ``any`` draws from the
    full mix; ``sphere-regular`` yields closed regular non-wandering
    spheres (all orbits compact extended orbits); ``sphere`` allows
    wandering pieces on genus zero.
    """

    max_depth: int = 2
    max_repeats: int = 4
    profile: str = "any"

    def __post_init__(self) -> None:
        for key in ("max_depth", "max_repeats"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PreconditionError(f"{key} must be an int, not {value!r}")
        if self.max_depth < 0:
            raise PreconditionError("max_depth must be non-negative")
        if self.max_repeats < 1:
            raise PreconditionError("max_repeats must be at least 1")
        if self.profile != "any" and self.profile not in _TEMPLATES:
            raise PreconditionError(f"unknown profile {self.profile!r}")


class _Builder:
    def __init__(self) -> None:
        self.singular: list[SingularSet] = []
        self.orbits: list[OrbitClass] = []
        self.families: list[Family] = []
        self.schemas: list[AccumulationSchema] = []
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def point(self, kind: PointKind, prefix: str) -> str:
        pid = self.fresh(prefix)
        self.singular.append(SingularSet(pid, Shape.POINT, kind))
        return pid

    def periodic(self, prefix: str = "g") -> str:
        oid = self.fresh(prefix)
        self.orbits.append(OrbitClass(oid, OrbitKind.PERIODIC))
        return oid

    def proper(self, alpha: LimitRef, omega: LimitRef, prefix: str = "t") -> str:
        oid = self.fresh(prefix)
        self.orbits.append(OrbitClass(oid, OrbitKind.PROPER, alpha=alpha, omega=omega))
        return oid

    def annulus(self, b0, b1, shrinks0=False, shrinks1=False) -> str:
        fid = self.fresh("f")
        self.families.append(
            Family(fid, FamilyKind.PERIODIC_ANNULUS, frozenset(b0), frozenset(b1), shrinks0, shrinks1)
        )
        return fid

    def build(self, surface: SurfaceInfo) -> FlowComplex:
        return FlowComplex.build(
            surface,
            singular_sets=self.singular,
            orbit_classes=self.orbits,
            families=self.families,
            accumulation_schemas=self.schemas,
        )


def _fill_disk(b: _Builder, rng: random.Random, boundary: frozenset[str], depth: int, wandering: bool) -> None:
    """Fill the disk inside ``boundary`` with total singularity index +1."""
    options = ["center", "center"]
    if depth > 0:
        options += ["eye", "ring"]
    if wandering:
        options += ["spiral", "spiral"]
    choice = rng.choice(options)
    if choice == "center":
        c = b.point(PointKind.CENTER, "c")
        b.annulus(boundary, {c}, shrinks1=True)
    elif choice == "ring":
        g = b.periodic()
        b.annulus(boundary, {g})
        _fill_disk(b, rng, frozenset({g}), depth - 1, wandering)
    elif choice == "eye":
        sd = b.point(PointKind.SADDLE, "sd")
        lo = b.proper(LimitRef.sing(sd), LimitRef.sing(sd), "lo")
        li = b.proper(LimitRef.sing(sd), LimitRef.sing(sd), "li")
        ec = b.point(PointKind.CENTER, "ec")
        b.annulus(boundary, {sd, lo})
        b.annulus({sd, lo, li}, {ec}, shrinks1=True)
        _fill_disk(b, rng, frozenset({sd, li}), depth - 1, wandering)
    else:  # spiral transit into a sink or out of a source
        g = b.periodic()
        b.annulus(boundary, {g})
        if rng.random() < 0.5:
            end = b.point(PointKind.SINK, "si")
            b.proper(LimitRef.orbit(g), LimitRef.sing(end), "w")
        else:
            end = b.point(PointKind.SOURCE, "so")
            b.proper(LimitRef.sing(end), LimitRef.orbit(g), "w")


def _sphere(rng: random.Random, size: SizeParams, wandering: bool) -> FlowComplex:
    b = _Builder()
    eq = b.periodic("eq")
    depth = rng.randint(0, size.max_depth)
    _fill_disk(b, rng, frozenset({eq}), depth, wandering)
    _fill_disk(b, rng, frozenset({eq}), rng.randint(0, size.max_depth), wandering)
    return b.build(SurfaceInfo(0, True, 0))


def _meridian_sphere(rng: random.Random, size: SizeParams) -> FlowComplex:
    """Two hemispheres of circles split by a degenerate equatorial point."""
    b = _Builder()
    q = b.point(PointKind.OTHER, "q")
    m = b.proper(LimitRef.sing(q), LimitRef.sing(q), "m")
    for _ in range(2):
        if rng.random() < 0.5:
            c = b.point(PointKind.CENTER, "c")
            b.annulus({m, q}, {c}, shrinks1=True)
        else:
            g = b.periodic()
            b.annulus({m, q}, {g})
            _fill_disk(b, rng, frozenset({g}), rng.randint(0, size.max_depth), wandering=False)
    return b.build(SurfaceInfo(0, True, 0))


def _torus_rational(rng: random.Random, size: SizeParams) -> FlowComplex:
    b = _Builder()
    k = rng.randint(1, size.max_repeats)
    circles = [b.periodic() for _ in range(k)]
    for i, g in enumerate(circles):
        b.annulus({g}, {circles[(i + 1) % k]})
    return b.build(SurfaceInfo(1, True, 0))


def _torus_irrational(rng: random.Random, size: SizeParams) -> FlowComplex:
    b = _Builder()
    leaves = [b.fresh("g") for _ in range(rng.randint(2, max(2, size.max_repeats)))]
    decl = frozenset(leaves)
    for leaf in leaves:
        b.orbits.append(OrbitClass(leaf, OrbitKind.LOCALLY_DENSE, closure_decl=decl))
    return b.build(SurfaceInfo(1, True, 0))


def _denjoy_torus(rng: random.Random, size: SizeParams) -> FlowComplex:
    """Exceptional minimal set with wandering transit orbits around it."""
    b = _Builder()
    leaves = [b.fresh("e") for _ in range(rng.randint(2, 3))]
    decl = frozenset(leaves)
    for leaf in leaves:
        b.orbits.append(OrbitClass(leaf, OrbitKind.EXCEPTIONAL, closure_decl=decl))
    for _ in range(rng.randint(1, 2)):
        b.proper(LimitRef.of_set(decl), LimitRef.of_set(decl), "w")
    return b.build(SurfaceInfo(1, True, 0))


def _circle_fixed_sphere(rng: random.Random, size: SizeParams) -> FlowComplex:
    """A circle of fixed points between two shrinking hemispheres of circles."""
    b = _Builder()
    ring = b.fresh("fixring")
    b.singular.append(SingularSet(ring, Shape.CIRCLE))
    for _ in range(2):
        c = b.point(PointKind.CENTER, "c")
        b.annulus({ring}, {c}, shrinks1=True)
    return b.build(SurfaceInfo(0, True, 0))


def _genus2(rng: random.Random, size: SizeParams) -> FlowComplex:
    side1 = rng.random() < 0.7
    side2 = rng.random() < 0.7
    leaves = rng.randint(1, 2)
    return gallery._torus_blowup_pair(irrational1=side1, irrational2=side2, generic_leaves=leaves)


def _comb_like(rng: random.Random, size: SizeParams) -> FlowComplex:
    fc = gallery.comb_torus(rng.randint(2, max(2, size.max_repeats)))
    if rng.random() < 0.5:
        extra = AccumulationSchema(
            "rowacc",
            SchemaKind.FAMILY_SEQUENCE,
            samples=("fam1", "fam2"),
            target=frozenset({"q0", "z0"}),
        )
        fc = FlowComplex.build(
            fc.surface,
            fc.singular_sets,
            fc.orbit_classes,
            fc.families,
            tuple(fc.accumulation_schemas) + (extra,),
            fc.saddle_set_decls,
        )
    return fc


_TEMPLATES = {
    "sphere-regular": lambda rng, size: _sphere(rng, size, wandering=False),
    "sphere": lambda rng, size: _sphere(rng, size, wandering=True),
    "meridian": _meridian_sphere,
    "torus-rational": _torus_rational,
    "torus-irrational": _torus_irrational,
    "denjoy": _denjoy_torus,
    "circle-fixed": _circle_fixed_sphere,
    "genus2": _genus2,
    "comb": _comb_like,
    "nested": lambda rng, size: gallery.nested_saddles_disk(rng.randint(2, max(2, size.max_repeats))),
    "double-center": lambda rng, size: gallery.double_center_sphere(rng.randint(1, 3)),
    "halfdisk": lambda rng, size: gallery.halfdisk_sphere(),
}

_ANY_MIX = (
    ["sphere-regular"] * 4
    + ["sphere"] * 3
    + ["meridian"] * 2
    + ["torus-rational"] * 2
    + ["torus-irrational"] * 2
    + ["genus2"] * 2
    + ["denjoy", "circle-fixed", "comb", "nested", "double-center", "halfdisk"]
)


def random_complex(seed: int, size: SizeParams = SizeParams()) -> FlowComplex:
    """Deterministic-in-seed valid complex drawn from the template mix."""
    # random.Random(None) seeds from the operating system
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise PreconditionError(f"seed must be an int, not {seed!r}")
    if not isinstance(size, SizeParams):
        raise PreconditionError(f"size must be a SizeParams, not {size!r}")
    rng = random.Random(seed)
    template = rng.choice(_ANY_MIX) if size.profile == "any" else size.profile
    return _TEMPLATES[template](rng, size)
