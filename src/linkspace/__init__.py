"""Moduli spaces of planar polygonal linkages: cell complexes, permutohedron
surgery, surface classification and mesh export.  Lengths are exact: a
length is a `linkage.Ratio`, an int pair in lowest terms."""

from .cwcomplex import CWComplex, build_complex
from .geometry import SurfaceMesh, perform_surgery
from .linkage import DEFAULT_EPSILON, Linkage, make_linkage
from .topology import TopologyReport, analyze, classify_linkage

__version__ = "0.1.0"

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
