"""Symbolic flow complexes on compact surfaces.

Represents continuous surface flows as finite complexes of singular sets,
orbit classes, families and accumulation schemas; computes extended orbits
as closure fixpoints over saddles (and generalized ones over isolated
saddle sets); and decides the property hierarchy extended R-closed =>
extended pointwise almost periodic => extended recurrent => non-wandering,
together with a verification harness for the structural facts relating
them.
"""

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
    PreconditionError,
    RefKind,
    SaddleSetDecl,
    SchemaKind,
    Shape,
    SingularSet,
    SurfaceInfo,
    UnknownIdError,
    ValidationReport,
    Violation,
    closure_of,
    validate,
)
from .orbits import (
    Direction,
    Expansion,
    ExtendedOrbitSet,
    InvalidSaddleSetError,
    extended_orbit,
    generalized_saddle_sets,
    is_isolated,
    is_saddle_set,
    orbit_set_closure,
    stable_set,
    unstable_set,
)
from .classify import (
    ClassificationReport,
    Classifier,
    CycleSide,
    DichotomyCase,
    LimitCycle,
    Verdict,
    Witness,
    classification_report,
)
from .theorems import (
    THEOREM_NAMES,
    TheoremResult,
    TheoremStatus,
    has_finitely_many_singularities,
    is_non_identical,
    verify_theorems,
)
from .gallery import GALLERY, GalleryEntry, GalleryError, build, gallery_names
from .randomgen import SizeParams, random_complex
from .textio import ParseError, ParseErrors, emit, parse
from .dot import export_dot

__version__ = "0.1.0"

__all__ = [
    "AccumulationSchema",
    "ClassificationReport",
    "Classifier",
    "CycleSide",
    "DichotomyCase",
    "Direction",
    "Expansion",
    "ExtendedOrbitSet",
    "Family",
    "FamilyKind",
    "FlowComplex",
    "FlowComplexError",
    "GALLERY",
    "GalleryEntry",
    "GalleryError",
    "InvalidSaddleSetError",
    "LimitCycle",
    "LimitRef",
    "OrbitClass",
    "OrbitKind",
    "ParseError",
    "ParseErrors",
    "PointKind",
    "PreconditionError",
    "RefKind",
    "SaddleSetDecl",
    "SchemaKind",
    "Shape",
    "SingularSet",
    "SizeParams",
    "SurfaceInfo",
    "THEOREM_NAMES",
    "TheoremResult",
    "TheoremStatus",
    "UnknownIdError",
    "ValidationReport",
    "Verdict",
    "Violation",
    "Witness",
    "build",
    "classification_report",
    "closure_of",
    "emit",
    "export_dot",
    "extended_orbit",
    "gallery_names",
    "generalized_saddle_sets",
    "has_finitely_many_singularities",
    "is_isolated",
    "is_non_identical",
    "is_saddle_set",
    "orbit_set_closure",
    "parse",
    "random_complex",
    "stable_set",
    "unstable_set",
    "validate",
    "verify_theorems",
]
