"""Moduli spaces of planar polygonal linkages: cell complexes, permutohedron
surgery, surface classification and mesh export."""

from .cwcomplex import CWComplex, build_complex
from .geometry import SurfaceMesh, perform_surgery
from .linkage import Linkage, make_linkage
from .topology import TopologyReport, analyze, classify_linkage

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """`DEFAULT_EPSILON`, which `linkage` builds as a Fraction when it is
    read, so that importing the package loads no `fractions`."""
    if name == "DEFAULT_EPSILON":
        from .linkage import DEFAULT_EPSILON

        return DEFAULT_EPSILON
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CWComplex",
    "DEFAULT_EPSILON",
    "Linkage",
    "SurfaceMesh",
    "TopologyReport",
    "analyze",
    "build_complex",
    "classify_linkage",
    "make_linkage",
    "perform_surgery",
]
